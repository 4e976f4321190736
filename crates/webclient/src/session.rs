//! One client's measurement session: the wget-like download procedure.

use crate::env::AccessEnvironment;
use crate::proxy::{ProxyFetch, ProxySession};
use dnssim::{dig_iterative, DigResult, LdnsCache, ResolverConfig, StubResolver, ZoneTree};
use dnswire::DomainName;
use httpsim::{HttpRequest, HttpResponse, StatusClass};
use model::{
    DigOutcome, DnsFailureKind, FailureClass, FaultSet, ProvenanceRecord, SimDuration, SimTime,
    TcpFailureKind, TraceEvent, TransactionOutcome, TxnTrace,
};
use netsim::SimRng;
use tcpsim::{classify_trace, count_retransmissions, simulate_connection_into, TcpConfig, Trace};
use std::net::Ipv4Addr;

/// wget-level policy knobs.
#[derive(Clone, Debug)]
pub struct WgetConfig {
    pub tcp: TcpConfig,
    /// Resolver policy. Its `wire_fidelity` switch also round-trips the
    /// HTTP heads through the text codec: one switch per client.
    pub resolver: ResolverConfig,
    /// Capture packet traces (the paper's BB clients could not).
    pub record_traces: bool,
    /// Send `Cache-Control: no-cache` (the CN clients' proxy-busting flag).
    pub no_cache: bool,
    /// Redirect hops wget will follow.
    pub max_redirects: u8,
    /// Hard cap on TCP connection attempts per transaction (wget --tries
    /// analogue).
    pub max_connections: u16,
    /// Time budget for connection retries within one transaction: after the
    /// first full pass over the address list, wget keeps retrying only
    /// while this much time has not elapsed. Fast failures (RSTs from the
    /// paper's blocked pairs) burn many attempts; 45-second SYN timeouts
    /// burn two or three — which is exactly why the 38 near-permanent pairs
    /// are 13% of transaction failures but 50.7% of connection failures in
    /// the paper.
    pub retry_time_budget: SimDuration,
    /// Run the iterative dig only when wget's own resolution failed (the
    /// paper ran it always but *uses* it only for failed lookups; skipping
    /// the healthy case keeps large simulations fast). Disable in tests that
    /// exercise the agreement statistic on successes.
    pub dig_on_failure_only: bool,
    /// Bytes of response headers added on the wire around the index object.
    pub header_overhead: u64,
    /// Stamp each observation with the ground-truth faults active during it
    /// (the fault-provenance flight recorder). Probing reads materialized
    /// timelines only, so the RNG draw order — and therefore the dataset —
    /// is bit-identical whether this is on or off.
    pub record_provenance: bool,
    /// Emit a phase-level forensic trace ([`TxnTrace`]) alongside each
    /// observation: every DNS attempt, TCP connect, and HTTP exchange as a
    /// causal event stamped with the faults active at that instant. Capture
    /// reuses the flight-recorder stamps (pure lookups, no RNG), so the
    /// dataset stays bit-identical with tracing on or off — and works with
    /// or without `record_provenance`.
    pub forensics: bool,
}

impl Default for WgetConfig {
    fn default() -> Self {
        WgetConfig {
            tcp: TcpConfig::default(),
            resolver: ResolverConfig::default(),
            record_traces: true,
            no_cache: false,
            max_redirects: 4,
            max_connections: 9,
            retry_time_budget: SimDuration::from_secs(90),
            dig_on_failure_only: true,
            header_overhead: 500,
            record_provenance: false,
            forensics: false,
        }
    }
}

/// One TCP connection attempt as the record keeper sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnObservation {
    pub replica: Ipv4Addr,
    pub start: SimTime,
    pub outcome: Result<(), TcpFailureKind>,
    pub syn_retransmissions: u8,
    /// Trace-visible data retransmissions (None without capture).
    pub retransmissions: Option<u32>,
}

/// Everything one transaction produced (identifiers are added by the
/// experiment runner).
#[derive(Clone, Debug)]
pub struct TransactionObservation {
    pub start: SimTime,
    pub dns: Result<SimDuration, DnsFailureKind>,
    pub outcome: TransactionOutcome,
    pub replica: Option<Ipv4Addr>,
    pub download_time: Option<SimDuration>,
    pub bytes_received: u64,
    pub connections: Vec<ConnObservation>,
    pub retransmissions: Option<u32>,
    pub dig: DigOutcome,
    /// Ground-truth fault stamp; `Some` only when
    /// [`WgetConfig::record_provenance`] is set.
    pub provenance: Option<ProvenanceRecord>,
    /// Phase-level causal timeline; `Some` only when
    /// [`WgetConfig::forensics`] is set.
    pub trace: Option<TxnTrace>,
}

impl TransactionObservation {
    fn dns_failure(start: SimTime, kind: DnsFailureKind, dig: DigOutcome) -> Self {
        TransactionObservation {
            start,
            dns: Err(kind),
            outcome: TransactionOutcome::Failure(FailureClass::Dns(kind)),
            replica: None,
            download_time: None,
            bytes_received: 0,
            connections: Vec::new(),
            retransmissions: None,
            dig,
            provenance: None,
            trace: None,
        }
    }
}

/// Bump the per-class outcome counters (and the download-time histogram)
/// for one completed transaction.
fn record_transaction_outcome(obs: &TransactionObservation) {
    if !telemetry::enabled() {
        return;
    }
    static OUTCOMES: telemetry::CounterVec<4> = telemetry::CounterVec::new(
        "client.transactions",
        ["ok", "dns_failure", "tcp_failure", "http_failure"],
    );
    OUTCOMES.add(
        match obs.outcome.failure() {
            None => 0,
            Some(FailureClass::Dns(_)) => 1,
            Some(FailureClass::Tcp(_)) => 2,
            Some(FailureClass::Http(_)) => 3,
        },
        1,
    );
    if let Some(d) = obs.download_time {
        telemetry::histogram!("client.download_time_us", d.as_micros());
    }
}

/// Ground truth for one transaction: the flight-recorder stamp and the
/// forensic timeline. As each phase runs, the DNS probe and the fault set
/// each connect's behaviour was read from fill it, and
/// [`ClientSession::finish`] turns it into the observation's `provenance`
/// and `trace`. Both are pure timeline lookups (no RNG), so they cannot
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

/// Per-client measurement state: the LDNS cache the client talks to, the
/// client's RNG stream, and the wget configuration.
pub struct ClientSession<'t> {
    tree: &'t ZoneTree,
    resolver: StubResolver<'t>,
    config: WgetConfig,
    cache: LdnsCache,
    rng: SimRng,
    /// Reused A-record buffer (one live allocation per session, not one per
    /// lookup).
    addr_scratch: Vec<Ipv4Addr>,
    /// Reused connection-observation buffer, reclaimed via [`Self::recycle`].
    conn_scratch: Vec<ConnObservation>,
    /// Reused packet-capture buffer for [`simulate_connection_into`].
    trace_buf: Trace,
    /// Reused hostname rendering buffer (one live allocation per session,
    /// not one per redirect hop).
    host_scratch: String,
    /// Reused HTTP head encoding buffer for the wire round trips.
    head_scratch: String,
}

impl<'t> ClientSession<'t> {
    pub fn new(tree: &'t ZoneTree, config: WgetConfig, rng: SimRng) -> Self {
        let resolver = StubResolver::new(tree, config.resolver);
        ClientSession {
            tree,
            resolver,
            config,
            cache: LdnsCache::new(),
            rng,
            addr_scratch: Vec::new(),
            conn_scratch: Vec::new(),
            trace_buf: Trace::new(),
            host_scratch: String::new(),
            head_scratch: String::new(),
        }
    }

    /// Reclaim the per-transaction buffers of a consumed observation so the
    /// next transaction reuses them instead of allocating. Callers that keep
    /// the observation (or its connection list) simply skip this.
    pub fn recycle(&mut self, mut obs: TransactionObservation) {
        obs.connections.clear();
        if obs.connections.capacity() > self.conn_scratch.capacity() {
            self.conn_scratch = obs.connections;
        }
    }

    pub fn config(&self) -> &WgetConfig {
        &self.config
    }

    /// The client's LDNS cache (exposed for tests and cache studies).
    pub fn ldns_cache(&self) -> &LdnsCache {
        &self.cache
    }

    /// Run one direct (non-proxied) transaction for `host` starting at `t`.
    pub fn run_transaction<E: AccessEnvironment>(
        &mut self,
        env: &E,
        host: &DomainName,
        t: SimTime,
    ) -> TransactionObservation {
        // Span-trace roughly one transaction in a thousand: enough to see
        // where simulation wall time goes without holding millions of spans.
        static SAMPLER: telemetry::Sampler = telemetry::Sampler::new(1024);
        let span = SAMPLER
            .hit()
            .then(|| telemetry::span!("client.transaction").with_detail(|| host.to_string()));
        let mut truth = Truth::new(&self.config);
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        let obs = self.run_transaction_core(env, host, t, &mut addrs, &mut truth);
        addrs.clear();
        self.addr_scratch = addrs;
        if let Some(mut span) = span {
            let end = t
                + obs.dns.unwrap_or(SimDuration::ZERO)
                + obs.download_time.unwrap_or(SimDuration::ZERO);
            span.set_sim_range(t.as_micros(), end.as_micros());
        }
        self.finish(obs, truth)
    }

    /// The single exit of every transaction, direct or proxied: the
    /// gathered truth becomes the observation's `provenance` and `trace`,
    /// and the outcome counters tick.
    fn finish(&self, mut obs: TransactionObservation, truth: Truth) -> TransactionObservation {
        obs.provenance = self.config.record_provenance.then_some(ProvenanceRecord {
            dns: truth.dns,
            connect: truth.connect,
        });
        obs.trace = truth.trace;
        record_transaction_outcome(&obs);
        obs
    }

    fn run_transaction_core<E: AccessEnvironment>(
        &mut self,
        env: &E,
        host: &DomainName,
        t: SimTime,
        addrs: &mut Vec<Ipv4Addr>,
        truth: &mut Truth,
    ) -> TransactionObservation {
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
            let dig = self.run_dig(env, host, t + dns_elapsed);
            return TransactionObservation::dns_failure(t, kind, dig);
        }

        let mut now = t + dns_elapsed;
        let mut connections: Vec<ConnObservation> = std::mem::take(&mut self.conn_scratch);
        let mut total_visible_retx: u32 = 0;
        let mut bytes_received: u64 = 0;
        let mut redirect_host: Option<DomainName> = None;
        let mut final_replica: Option<Ipv4Addr> = None;

        // Every exit past a successful first lookup, but for a failed
        // redirect lookup, leaves the hop loop with its outcome and replica.
        let (outcome, replica) = 'hops: {
            for _hop in 0..=self.config.max_redirects {
                // What will this host's origin say? (Determines the transfer
                // size the connection must carry.)
                self.host_scratch.clear();
                {
                    use std::fmt::Write as _;
                    write!(
                        self.host_scratch,
                        "{}",
                        redirect_host.as_ref().unwrap_or(host)
                    )
                    .expect("formatting into a String cannot fail");
                }
                let host_str = &self.host_scratch;
                let request = HttpRequest::get(host_str, "/", self.config.no_cache);
                if self.config.resolver.wire_fidelity {
                    request.encode_into(&mut self.head_scratch);
                    let _ = HttpRequest::decode(&self.head_scratch).expect("own request re-parses");
                }
                let answer = match env.origin(host_str) {
                    Some(origin) => origin.respond(host_str, &request, &mut self.rng),
                    None => httpsim::OriginAnswer {
                        response: HttpResponse::error(404, "Not Found"),
                        next_host: None,
                    },
                };
                if self.config.resolver.wire_fidelity {
                    answer.response.encode_head_into(&mut self.head_scratch);
                    let _ = HttpResponse::decode_head(&self.head_scratch)
                        .expect("own response re-parses");
                }
                let wire_bytes = answer.response.body_len + self.config.header_overhead;

                // Connect: wget fails over across the A records, then keeps
                // retrying while its time budget lasts. One full pass over the
                // address list is always attempted.
                let mut connected_result = None;
                let conn_phase_start = now;
                let captured = self.config.record_traces;
                'retry: loop {
                    for addr in addrs.iter() {
                        if connections.len() as u16 >= self.config.max_connections {
                            break 'retry;
                        }
                        let (behavior, faults) = env.server_behavior(*addr, now);
                        let attempt_truth = truth.connect(faults);
                        let path = env.path_quality(*addr, now);
                        let result = simulate_connection_into(
                            &self.config.tcp,
                            behavior,
                            &path,
                            wire_bytes,
                            now,
                            &mut self.rng,
                            captured.then_some(&mut self.trace_buf),
                        );
                        let trace = captured.then_some(&self.trace_buf);
                        let visible_retx = trace.map(|tr| count_retransmissions(tr).1);
                        if let Some(v) = visible_retx {
                            total_visible_retx += v;
                        }
                        // Classify the way the measurement does: from the trace
                        // when available, else coarsely from wget's own view.
                        let observed_outcome = match (trace, &result.outcome) {
                            (_, Ok(())) => Ok(()),
                            (Some(trace), Err(_)) => Err(classify_trace(trace)
                                .failure_kind()
                                .expect("failed connection has a failing trace")),
                            (None, Err(_)) => {
                                if result.established {
                                    Err(TcpFailureKind::NoOrPartialResponse)
                                } else {
                                    Err(TcpFailureKind::NoConnection)
                                }
                            }
                        };
                        connections.push(ConnObservation {
                            replica: *addr,
                            start: now,
                            outcome: observed_outcome,
                            syn_retransmissions: result.syn_retransmissions,
                            retransmissions: visible_retx,
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
                        if result.outcome.is_ok() {
                            bytes_received += result.bytes_delivered.min(answer.response.body_len);
                            connected_result = Some(*addr);
                            break 'retry;
                        } else {
                            bytes_received += result.bytes_delivered.min(answer.response.body_len);
                        }
                    }
                    // First pass complete; continue only while the budget is
                    // not yet exhausted.
                    if now - conn_phase_start >= self.config.retry_time_budget {
                        break 'retry;
                    }
                }

                let Some(addr) = connected_result else {
                    // All connection attempts failed: a TCP transaction failure,
                    // classified from the last attempt.
                    let kind = connections
                        .last()
                        .and_then(|c| c.outcome.err())
                        .unwrap_or(TcpFailureKind::NoConnection);
                    let outcome = TransactionOutcome::Failure(FailureClass::Tcp(kind));
                    break 'hops (outcome, connections.last().map(|c| c.replica));
                };
                final_replica = Some(addr);
                truth.event(|| TraceEvent::Http {
                    host: host_str.clone(),
                    at: now,
                    status: answer.response.status,
                    redirect: answer.next_host.clone(),
                    truth: FaultSet::EMPTY,
                });

                match StatusClass::of(answer.response.status) {
                    StatusClass::Success => {
                        break 'hops (TransactionOutcome::Success, final_replica)
                    }
                    StatusClass::Redirect => {
                        let next = answer.next_host.expect("redirect carries next host");
                        let next_name: DomainName = match next.parse() {
                            Ok(n) => n,
                            Err(_) => {
                                let outcome = TransactionOutcome::Failure(FailureClass::Http(502));
                                break 'hops (outcome, final_replica);
                            }
                        };
                        let hop_truth = truth.dns(env, &next_name, now);
                        // Resolve the next hop (LDNS cache applies).
                        let r = self.resolver.resolve_into(
                            &next_name,
                            env,
                            now,
                            &mut self.rng,
                            &mut self.cache,
                            addrs,
                        );
                        truth.event(|| TraceEvent::Dns {
                            host: next.clone(),
                            at: now,
                            elapsed: r.elapsed,
                            outcome: r.result,
                            truth: hop_truth,
                        });
                        now += r.elapsed;
                        match r.result {
                            Ok(()) => {
                                redirect_host = Some(next_name);
                            }
                            Err(kind) => {
                                let dig = self.run_dig(env, &next_name, now);
                                let mut obs = TransactionObservation::dns_failure(t, kind, dig);
                                // The initial lookup *succeeded*; the redirect's
                                // failed. Keep the failure class but preserve the
                                // observed connections.
                                obs.dns = Ok(dns_elapsed);
                                obs.outcome = TransactionOutcome::Failure(FailureClass::Dns(kind));
                                obs.connections = connections;
                                obs.bytes_received = bytes_received;
                                obs.retransmissions =
                                    self.config.record_traces.then_some(total_visible_retx);
                                return obs;
                            }
                        }
                    }
                    _ => {
                        let outcome =
                            TransactionOutcome::Failure(FailureClass::Http(answer.response.status));
                        break 'hops (outcome, final_replica);
                    }
                }
            }
            // Redirect limit exceeded: wget reports an error; classify as HTTP.
            (
                TransactionOutcome::Failure(FailureClass::Http(310)),
                final_replica,
            )
        };
        let mut obs = TransactionObservation {
            start: t,
            dns: Ok(dns_elapsed),
            outcome,
            replica,
            download_time: Some(now - (t + dns_elapsed)),
            bytes_received,
            connections,
            retransmissions: self.config.record_traces.then_some(total_visible_retx),
            dig: DigOutcome::NotRun,
            provenance: None,
            trace: None,
        };
        if obs.outcome.is_success() && !self.config.dig_on_failure_only {
            obs.dig = self.run_dig(env, host, now);
        }
        obs
    }

    /// Run one transaction through a corporate caching proxy.
    ///
    /// `env` is the *client's* view (covers the client↔proxy leg);
    /// `proxy_env` is the proxy's vantage toward the wide area.
    pub fn run_proxied_transaction<E, P>(
        &mut self,
        env: &E,
        proxy: &mut ProxySession,
        proxy_env: &P,
        host: &DomainName,
        t: SimTime,
    ) -> TransactionObservation
    where
        E: AccessEnvironment,
        P: AccessEnvironment,
    {
        let mut truth = Truth::new(&self.config);
        // The client must reach its proxy over the corporate LAN/WAN.
        if !env.client_link_up(t) {
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
            let obs = TransactionObservation {
                start: t,
                dns: Ok(SimDuration::ZERO),
                outcome: TransactionOutcome::Failure(FailureClass::Tcp(
                    TcpFailureKind::NoConnection,
                )),
                replica: None,
                download_time: None,
                bytes_received: 0,
                connections: Vec::new(),
                retransmissions: None,
                dig: DigOutcome::NotRun,
                provenance: None,
                trace: None,
            };
            return self.finish(obs, truth);
        }
        let local_rtt = SimDuration::from_millis(5);
        // No retry here: the proxy answers the client with an HTTP gateway
        // error, which wget treats as a (failed) response — unlike its own
        // transport-level failures, which it does retry. This asymmetry is
        // part of the Table 9 proxy effect.
        let fetch = proxy.fetch(proxy_env, self.tree, host, t + local_rtt, self.config.no_cache);
        let (outcome, bytes, duration) = match fetch {
            ProxyFetch::Success { bytes, duration } => (
                TransactionOutcome::Success,
                bytes,
                duration + local_rtt * 2u64,
            ),
            ProxyFetch::HttpError(status, duration) => (
                TransactionOutcome::Failure(FailureClass::Http(status)),
                0,
                duration + local_rtt * 2u64,
            ),
            ProxyFetch::DnsFailed(_, duration) => (
                // The ISA proxy answers quickly with a gateway error; the
                // client cannot see that DNS was the cause.
                TransactionOutcome::Failure(FailureClass::Http(502)),
                0,
                duration + local_rtt * 2u64,
            ),
            ProxyFetch::ConnectFailed(duration) | ProxyFetch::TransferFailed(duration) => (
                TransactionOutcome::Failure(FailureClass::Http(504)),
                0,
                duration + local_rtt * 2u64,
            ),
        };
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
            status: match &outcome {
                TransactionOutcome::Success => 200,
                TransactionOutcome::Failure(FailureClass::Http(s)) => *s,
                // Proxied failures always surface as HTTP statuses (above).
                TransactionOutcome::Failure(_) => 0,
            },
            redirect: None,
            truth: vantage,
        });
        let obs = TransactionObservation {
            start: t,
            dns: Ok(SimDuration::ZERO),
            outcome,
            replica: None,
            download_time: Some(duration),
            bytes_received: bytes,
            // The proxy masks upstream connections; the local connection is
            // not informative (Section 3.4) and is not recorded.
            connections: Vec::new(),
            retransmissions: None,
            dig: DigOutcome::NotRun,
            provenance: None,
            trace: None,
        };
        self.finish(obs, truth)
    }

    fn run_dig<E: AccessEnvironment>(
        &mut self,
        env: &E,
        host: &DomainName,
        t: SimTime,
    ) -> DigOutcome {
        let (result, _) = dig_iterative(
            self.tree,
            host,
            env,
            t,
            &mut self.rng,
            &self.config.resolver,
        );
        match result {
            DigResult::Resolved(_) => DigOutcome::Resolved,
            DigResult::Failed(kind) => DigOutcome::Failed(kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::HealthyEnv;
    use dnssim::{DnsFaults, ZoneTree};
    use httpsim::Origin;
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
        ClientSession::new(tree, cfg, SimRng::new(seed))
    }

    #[test]
    fn healthy_transaction_succeeds() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.example.com", 24_000));
        let mut s = session(&tr, 1);
        let obs = s.run_transaction(&env, &name("www.example.com"), SimTime::from_hours(1));
        assert!(obs.outcome.is_success());
        assert_eq!(obs.bytes_received, 24_000);
        assert_eq!(obs.connections.len(), 1);
        assert_eq!(obs.replica, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(obs.dns.is_ok());
        assert_eq!(obs.dig, DigOutcome::NotRun);
        assert!(obs.download_time.unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn redirect_adds_a_connection() {
        let tr = tree();
        let env = HealthyEnv::new(
            Origin::simple("www.example.com", 10_000)
                .with_redirects(vec!["example.com".to_string()]),
        );
        let mut s = session(&tr, 2);
        let obs = s.run_transaction(&env, &name("example.com"), SimTime::from_hours(1));
        assert!(obs.outcome.is_success());
        assert_eq!(obs.connections.len(), 2, "redirect hop + content hop");
        assert_eq!(obs.replica, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(obs.bytes_received, 10_000);
    }

    /// Environment in which every server is unreachable.
    struct ServersDown(HealthyEnv);
    impl DnsFaults for ServersDown {}
    impl AccessEnvironment for ServersDown {
        fn server_behavior(&self, _r: Ipv4Addr, _t: SimTime) -> (ServerBehavior, FaultSet) {
            (ServerBehavior::Unreachable, FaultSet::EMPTY)
        }
        fn path_quality(&self, r: Ipv4Addr, t: SimTime) -> PathQuality {
            self.0.path_quality(r, t)
        }
        fn origin(&self, host: &str) -> Option<&Origin> {
            self.0.origin(host)
        }
    }

    #[test]
    fn server_down_yields_no_connection_with_failover_attempts() {
        let tr = tree();
        let env = ServersDown(HealthyEnv::new(Origin::simple("www.multi.org", 5_000)));
        let mut s = session(&tr, 3);
        let obs = s.run_transaction(&env, &name("www.multi.org"), SimTime::from_hours(1));
        assert_eq!(
            obs.outcome.failure().unwrap(),
            FailureClass::Tcp(TcpFailureKind::NoConnection)
        );
        // One full pass over the 3 replicas (45 s SYN timeouts each)
        // exhausts the 90-second retry budget.
        assert_eq!(obs.connections.len(), 3);
        assert!(obs.connections.iter().all(|c| c.outcome.is_err()));
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
        fn origin(&self, host: &str) -> Option<&Origin> {
            self.0.origin(host)
        }
    }

    #[test]
    fn failover_across_a_records() {
        let tr = tree();
        let good = Ipv4Addr::new(10, 1, 0, 3);
        let env = OneGoodReplica(HealthyEnv::new(Origin::simple("www.multi.org", 5_000)), good);
        let mut s = session(&tr, 4);
        // DNS round-robin rotates the order, so the number of dead
        // replicas tried first varies — but wget always lands on the live
        // one eventually.
        for k in 0..10u64 {
            let t = SimTime::from_hours(1) + SimDuration::from_secs(k * 120);
            let obs = s.run_transaction(&env, &name("www.multi.org"), t);
            assert!(obs.outcome.is_success(), "wget fails over to the live replica");
            assert_eq!(obs.replica, Some(good));
            assert!((1..=3).contains(&obs.connections.len()));
            assert!(obs.connections.last().unwrap().outcome.is_ok());
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
        fn origin(&self, host: &str) -> Option<&Origin> {
            self.0.origin(host)
        }
    }

    #[test]
    fn dns_failure_short_circuits_and_digs() {
        let tr = tree();
        let env = NoDns(HealthyEnv::new(Origin::simple("www.example.com", 1_000)));
        let mut s = session(&tr, 5);
        let obs = s.run_transaction(&env, &name("www.example.com"), SimTime::from_hours(1));
        assert_eq!(
            obs.outcome.failure().unwrap(),
            FailureClass::Dns(DnsFailureKind::LdnsTimeout)
        );
        assert!(obs.connections.is_empty());
        // Link down: dig agrees (the >94% agreement case).
        assert_eq!(obs.dig, DigOutcome::Failed(DnsFailureKind::LdnsTimeout));
    }

    #[test]
    fn http_error_is_http_failure() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.example.com", 1_000).with_error_rate(1.0, 503));
        let mut s = session(&tr, 6);
        let obs = s.run_transaction(&env, &name("www.example.com"), SimTime::from_hours(1));
        assert_eq!(obs.outcome.failure().unwrap(), FailureClass::Http(503));
        assert_eq!(obs.connections.len(), 1, "transfer worked; content didn't");
        assert!(obs.connections[0].outcome.is_ok());
    }

    #[test]
    fn unknown_origin_is_http_404() {
        let tr = tree();
        // Environment knows www.example.com only; we ask for example.com
        // (resolvable in DNS but no origin behind it).
        let env = HealthyEnv::new(Origin::simple("www.example.com", 1_000));
        let mut s = session(&tr, 7);
        let obs = s.run_transaction(&env, &name("example.com"), SimTime::from_hours(1));
        assert_eq!(obs.outcome.failure().unwrap(), FailureClass::Http(404));
    }

    #[test]
    fn traces_off_merges_post_handshake_failures() {
        struct NoResp(HealthyEnv);
        impl DnsFaults for NoResp {}
        impl AccessEnvironment for NoResp {
            fn server_behavior(&self, _r: Ipv4Addr, _t: SimTime) -> (ServerBehavior, FaultSet) {
                (ServerBehavior::AcceptNoResponse, FaultSet::EMPTY)
            }
            fn path_quality(&self, r: Ipv4Addr, t: SimTime) -> PathQuality {
                self.0.path_quality(r, t)
            }
            fn origin(&self, host: &str) -> Option<&Origin> {
                self.0.origin(host)
            }
        }
        let tr = tree();
        let env = NoResp(HealthyEnv::new(Origin::simple("www.example.com", 1_000)));
        let mut cfg = WgetConfig::default();
        cfg.record_traces = false; // a BB client
        let mut s = ClientSession::new(&tr, cfg, SimRng::new(8));
        let obs = s.run_transaction(&env, &name("www.example.com"), SimTime::from_hours(1));
        assert_eq!(
            obs.outcome.failure().unwrap(),
            FailureClass::Tcp(TcpFailureKind::NoOrPartialResponse)
        );
        assert_eq!(obs.retransmissions, None, "no trace, no loss count");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.example.com", 24_000));
        let mut a = session(&tr, 42);
        let mut b = session(&tr, 42);
        let oa = a.run_transaction(&env, &name("www.example.com"), SimTime::from_hours(3));
        let ob = b.run_transaction(&env, &name("www.example.com"), SimTime::from_hours(3));
        assert_eq!(oa.download_time, ob.download_time);
        assert_eq!(oa.bytes_received, ob.bytes_received);
    }

    #[test]
    fn proxied_transaction_success_and_masking() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.example.com", 9_000));
        let mut s = session(&tr, 21);
        let mut proxy = crate::proxy::ProxySession::new(Default::default(), SimRng::new(22));
        let obs = s.run_proxied_transaction(
            &env,
            &mut proxy,
            &env,
            &name("www.example.com"),
            SimTime::from_hours(1),
        );
        assert!(obs.outcome.is_success());
        assert_eq!(obs.bytes_received, 9_000);
        // Masking: no DNS timing, no connection records, no traces, no dig.
        assert_eq!(obs.dns, Ok(SimDuration::ZERO));
        assert!(obs.connections.is_empty());
        assert_eq!(obs.retransmissions, None);
        assert_eq!(obs.dig, DigOutcome::NotRun);
    }

    #[test]
    fn proxied_transaction_maps_upstream_failure_to_gateway_error() {
        let tr = tree();
        let env = ServersDown(HealthyEnv::new(Origin::simple("www.example.com", 9_000)));
        let mut s = session(&tr, 23);
        let mut proxy = crate::proxy::ProxySession::new(Default::default(), SimRng::new(24));
        let obs = s.run_proxied_transaction(
            &env,
            &mut proxy,
            &env,
            &name("www.example.com"),
            SimTime::from_hours(1),
        );
        assert_eq!(obs.outcome.failure().unwrap(), FailureClass::Http(504));
    }

    #[test]
    fn proxied_transaction_fails_locally_when_client_link_down() {
        let tr = tree();
        let client_env = NoDns(HealthyEnv::new(Origin::simple("www.example.com", 9_000)));
        let proxy_env = HealthyEnv::new(Origin::simple("www.example.com", 9_000));
        let mut s = session(&tr, 25);
        let mut proxy = crate::proxy::ProxySession::new(Default::default(), SimRng::new(26));
        let obs = s.run_proxied_transaction(
            &client_env,
            &mut proxy,
            &proxy_env,
            &name("www.example.com"),
            SimTime::from_hours(1),
        );
        assert_eq!(
            obs.outcome.failure().unwrap(),
            FailureClass::Tcp(TcpFailureKind::NoConnection),
            "cannot even reach the proxy"
        );
    }

    #[test]
    fn proxied_upstream_dns_failure_is_a_masked_gateway_error() {
        let tr = tree();
        let client_env = HealthyEnv::new(Origin::simple("www.example.com", 9_000));
        // The proxy's vantage has no working DNS.
        let proxy_env = NoDns(HealthyEnv::new(Origin::simple("www.example.com", 9_000)));
        let mut s = session(&tr, 27);
        let mut proxy = crate::proxy::ProxySession::new(Default::default(), SimRng::new(28));
        let obs = s.run_proxied_transaction(
            &client_env,
            &mut proxy,
            &proxy_env,
            &name("www.example.com"),
            SimTime::from_hours(1),
        );
        assert_eq!(
            obs.outcome.failure().unwrap(),
            FailureClass::Http(502),
            "the client cannot tell it was DNS"
        );
    }

    fn forensic_session<'a>(tree: &'a ZoneTree, seed: u64) -> ClientSession<'a> {
        let mut cfg = WgetConfig::default();
        cfg.resolver.query_loss_prob = 0.0;
        cfg.forensics = true;
        ClientSession::new(tree, cfg, SimRng::new(seed))
    }

    #[test]
    fn forensics_captures_causal_timeline() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.example.com", 24_000));
        let mut s = forensic_session(&tr, 31);
        let obs = s.run_transaction(&env, &name("www.example.com"), SimTime::from_hours(1));
        assert!(obs.outcome.is_success());
        let trace = obs.trace.expect("forensics on records a trace");
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
            Origin::simple("www.example.com", 10_000)
                .with_redirects(vec!["example.com".to_string()]),
        );
        let mut s = forensic_session(&tr, 32);
        let obs = s.run_transaction(&env, &name("example.com"), SimTime::from_hours(1));
        assert!(obs.outcome.is_success());
        let trace = obs.trace.expect("trace recorded");
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
        let env = NoDns(HealthyEnv::new(Origin::simple("www.example.com", 1_000)));
        let mut s = forensic_session(&tr, 33);
        let obs = s.run_transaction(&env, &name("www.example.com"), SimTime::from_hours(1));
        assert!(obs.outcome.is_failure());
        let trace = obs.trace.expect("trace recorded");
        assert_eq!(trace.events.len(), 1, "DNS dies before any connect");
        assert_eq!(trace.events[0].phase(), "dns");
        assert!(trace.events[0].failed());
    }

    #[test]
    fn forensics_does_not_perturb_transactions() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.example.com", 24_000));
        let mut plain = session(&tr, 34);
        let mut traced = forensic_session(&tr, 34);
        for k in 0..6u64 {
            let t = SimTime::from_hours(1) + SimDuration::from_secs(k * 600);
            let a = plain.run_transaction(&env, &name("www.example.com"), t);
            let b = traced.run_transaction(&env, &name("www.example.com"), t);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.dns, b.dns);
            assert_eq!(a.download_time, b.download_time);
            assert_eq!(a.bytes_received, b.bytes_received);
            assert_eq!(a.connections, b.connections);
            assert!(a.trace.is_none(), "forensics off records nothing");
            assert!(b.trace.is_some());
        }
    }

    #[test]
    fn forensics_collapses_proxied_exchange_to_one_event() {
        let tr = tree();
        let env = HealthyEnv::new(Origin::simple("www.example.com", 9_000));
        let mut s = forensic_session(&tr, 35);
        let mut proxy = crate::proxy::ProxySession::new(Default::default(), SimRng::new(36));
        let obs = s.run_proxied_transaction(
            &env,
            &mut proxy,
            &env,
            &name("www.example.com"),
            SimTime::from_hours(1),
        );
        assert!(obs.outcome.is_success());
        let trace = obs.trace.expect("trace recorded");
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
        fn origin(&self, host: &str) -> Option<&Origin> {
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
        let mut s = ClientSession::new(&tr, cfg, SimRng::new(37));
        let mut proxy = crate::proxy::ProxySession::new(Default::default(), SimRng::new(38));
        let t = SimTime::from_hours(1);
        env.1.set(0);
        s.run_transaction(env, &name("example.com"), t);
        let direct = env.1.replace(0);
        s.run_proxied_transaction(env, &mut proxy, env, &name("www.example.com"), t);
        (direct, env.1.get())
    }

    #[test]
    fn truth_is_never_probed_with_both_observers_off() {
        let origin = || {
            Origin::simple("www.example.com", 9_000).with_redirects(vec!["example.com".to_string()])
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
        let env = HealthyEnv::new(Origin::simple("www.example.com", 1_000));
        let mut s = session(&tr, 9);
        let t0 = SimTime::from_hours(1);
        let first = s.run_transaction(&env, &name("www.example.com"), t0);
        let second = s.run_transaction(
            &env,
            &name("www.example.com"),
            t0 + SimDuration::from_secs(120),
        );
        assert!(first.dns.unwrap() > second.dns.unwrap(), "cache hit is faster");
        assert_eq!(s.ldns_cache().len(), 1);
    }
}
