//! The experiment runner: a month of web accesses plus the BGP feed.
//!
//! Determinism contract: every client draws from its own forked RNG stream
//! and reads only immutable shared state (zone tree, ground-truth
//! timelines), so the dataset is bit-identical regardless of thread count or
//! scheduling. Clients run in parallel with `std::thread::scope` under a
//! work-stealing scheduler: workers claim client indices from a shared
//! atomic counter, so per-client cost variance (dialup PoP cycling vs.
//! broadband) balances across workers instead of idling behind static
//! chunk boundaries.
//!
//! Fault tolerance contract: a client worker that panics (a node death from
//! the [`crate::apparatus`] model, or a genuine bug) loses that client's
//! records but never the run — the panic is caught, the client is reported
//! as lost in the [`RunReport`], and every other client's output is
//! untouched (their RNG streams are forked independently, so a lost sibling
//! cannot shift them).

use crate::apparatus::{corrupt_buffer, ApparatusFaults};
use crate::clients::{build_fleet, FleetSpec};
use crate::faults::{AdversarialProfile, GroundTruth, SiteTruth};
use crate::forensics::{ExemplarStore, ForensicsConfig};
use crate::sites::build_sites;
use crate::view::{ClientView, ProxyView};
use bgpsim::mrt::{decode_stream_salvage, encode_stream, MrtPrefixTable};
use bgpsim::{aggregate, clean, generate, BgpScenario, ReconfigWindow, SevereEvent};
use dnssim::ZoneTree;
use dnswire::DomainName;
use model::{
    ClientId, ClientMeta, Dataset, ConnectionRecord, Ipv4Prefix, PerformanceRecord, PrefixId,
    ProvenanceLog, ProvenanceRecord, SimDuration, SimTime, SiteId, SiteMeta, TraceExemplar,
    TxnTrace,
};
use netsim::SimRng;
use webclient::{ClientSession, ProxySession, WgetConfig};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Scale and fidelity knobs for one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub seed: u64,
    /// Horizon in hours (the paper's month is 744).
    pub hours: u32,
    /// Accesses of each URL per hour per client (the paper's rate is ~4).
    pub iterations_per_hour: u32,
    /// Write every DNS message through the RFC 1035 codec and check what
    /// it reads back. DNS only: the record keeper keeps a response's
    /// status and size, never an HTTP header, so no HTTP bytes are written.
    /// This changes what a run costs, never its dataset: the codec draws
    /// nothing from the simulation RNG, and the answers come from the zones
    /// either way.
    pub wire_fidelity: bool,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Multiplier on every ground-truth fault intensity (1.0 = the
    /// calibrated 2005 Internet; see [`GroundTruth::materialize`]).
    pub fault_scale: f64,
    /// Injected measurement-infrastructure faults (node deaths, record
    /// loss, feed corruption). [`ApparatusFaults::none`] leaves the run
    /// bit-for-bit identical to the healthy configuration.
    pub apparatus: ApparatusFaults,
    /// Run the fault-provenance flight recorder: stamp every transaction
    /// with the ground-truth faults active during it and export the
    /// [`ProvenanceLog`] sidecar. The dataset itself is bit-identical on or
    /// off — stamping reads materialized timelines only, never the RNG.
    pub record_provenance: bool,
    /// Adversarial fault-archetype intensities.
    /// [`AdversarialProfile::none`] (the default everywhere) draws nothing
    /// from any archetype stream and leaves the run bit-identical to a
    /// build without the suite.
    pub adversarial: AdversarialProfile,
    /// Forensic trace capture: `Some` tail-samples causal traces into an
    /// [`ExemplarStore`]. Like the provenance recorder, capture reads only
    /// materialized timelines — the dataset is bit-identical with tracing
    /// on, off, or compiled against `--no-default-features`.
    pub forensics: Option<ForensicsConfig>,
}

impl ExperimentConfig {
    /// Full paper scale: 744 hours × 4 accesses/hour × 80 sites × 134
    /// clients ≈ 32 M transactions. Heavy; DNS wire codec off.
    pub fn paper_scale(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            hours: 744,
            iterations_per_hour: 4,
            wire_fidelity: false,
            threads: 0,
            fault_scale: 1.0,
            apparatus: ApparatusFaults::none(),
            record_provenance: false,
            adversarial: AdversarialProfile::none(),
            forensics: None,
        }
    }

    /// Default reproduction scale: the full month and fleet at 2
    /// accesses/hour (~16 M transactions). Rates and shares — what the
    /// paper's findings are about — are preserved; absolute counts halve.
    pub fn reproduction(seed: u64) -> Self {
        ExperimentConfig {
            iterations_per_hour: 2,
            ..Self::paper_scale(seed)
        }
    }

    /// A small run for integration tests and examples: full fleet, 72
    /// hours, 1 access/hour, DNS wire codec on.
    pub fn quick(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            hours: 72,
            iterations_per_hour: 1,
            wire_fidelity: true,
            threads: 0,
            fault_scale: 1.0,
            apparatus: ApparatusFaults::none(),
            record_provenance: false,
            adversarial: AdversarialProfile::none(),
            forensics: None,
        }
    }

    /// Expected transaction count (modulo machine downtime).
    pub fn expected_transactions(&self) -> u64 {
        u64::from(self.hours) * u64::from(self.iterations_per_hour) * 80 * 134
    }

    /// FNV-1a digest of the complete config (via its `Debug` rendering), so
    /// a run manifest can prove which knob settings produced a dataset.
    /// Covers every field — adding a knob changes the digest by
    /// construction.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut h = model::Fnv::new();
        write!(h, "{self:?}").expect("hashing cannot fail");
        h.finish()
    }
}

/// Everything a run produces: what a measurement would have collected
/// (the dataset), the [`RunReport`] accounting for the apparatus itself,
/// and what the two observers recorded when asked. The ground-truth world
/// stays inside [`run_experiment`]: the only ground truth that leaves it is
/// what those observers stamped, and the flight recorder's sidecar is the
/// answer key `netprofiler::audit` scores.
pub struct ExperimentOutput {
    pub dataset: Dataset,
    pub report: RunReport,
    /// The flight recorder's sidecar (`Some` only when
    /// [`ExperimentConfig::record_provenance`] was set): one stamp per
    /// dataset record, parallel by index, plus the run's answer key.
    pub provenance: Option<ProvenanceLog>,
    /// Tail-sampled forensic exemplars (`Some` only when
    /// [`ExperimentConfig::forensics`] was set): per-(blame × archetype)
    /// bounded buckets of causal traces, record indices pointing into
    /// `dataset.records`. Only kept records are ever offered, so each
    /// bucket holds the first failures and the slowest successes of the
    /// dataset itself.
    pub forensics: Option<ExemplarStore>,
}

/// What happened to one client's worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOutcome {
    /// The client's month completed. `records` counts what reached the
    /// dataset, after any apparatus record drops.
    Completed {
        records: usize,
        connections: usize,
        dropped_records: usize,
    },
    /// The worker panicked (node death or a bug); everything it gathered is
    /// gone.
    Lost { error: String },
}

impl ClientOutcome {
    pub fn is_lost(&self) -> bool {
        matches!(self, ClientOutcome::Lost { .. })
    }
}

/// Per-client entry of the [`RunReport`].
#[derive(Clone, Debug)]
pub struct ClientRunReport {
    pub client: ClientId,
    /// Host name, so a lost client can be named in operator output.
    pub name: String,
    pub outcome: ClientOutcome,
    /// Wall-clock time the worker spent on this client (diagnostic only —
    /// the one deliberately nondeterministic field of a run).
    pub wall: Duration,
}

/// Per-run accounting of the measurement apparatus: which clients ran,
/// which were lost, what collection dropped, and what feed salvage had to
/// quarantine. A healthy run has `is_clean() == true`.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    pub clients: Vec<ClientRunReport>,
    /// Performance records lost in collection, across all clients.
    pub records_dropped: u64,
    /// MRT records salvage-decoding recovered from the corrupted BGP feed
    /// (only non-zero when [`ApparatusFaults::corrupt_bgp_feed`] is set).
    pub mrt_records_kept: u64,
    /// MRT records quarantined while salvage-decoding the BGP feed (only
    /// non-zero when [`ApparatusFaults::corrupt_bgp_feed`] is set).
    pub mrt_issues: u64,
    /// First few quarantined-record descriptions, for operator output.
    pub mrt_issue_samples: Vec<String>,
    /// Worker threads actually used (the resolved value of
    /// [`ExperimentConfig::threads`] `== 0`).
    pub threads_effective: usize,
    /// Wall-clock time per pipeline stage, in execution order (diagnostic
    /// only — nondeterministic, like the per-client `wall` fields).
    pub stage_walls: Vec<(&'static str, Duration)>,
}

impl RunReport {
    /// Ids of clients whose workers were lost.
    pub fn lost_clients(&self) -> Vec<ClientId> {
        self.clients
            .iter()
            .filter(|c| c.outcome.is_lost())
            .map(|c| c.client)
            .collect()
    }

    /// Names of lost clients (for human-facing summaries).
    pub fn lost_names(&self) -> Vec<&str> {
        self.clients
            .iter()
            .filter(|c| c.outcome.is_lost())
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Records that made it into the dataset.
    pub fn records_kept(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| match c.outcome {
                ClientOutcome::Completed { records, .. } => records as u64,
                ClientOutcome::Lost { .. } => 0,
            })
            .sum()
    }

    /// No lost clients, no dropped records, no quarantined feed records.
    pub fn is_clean(&self) -> bool {
        self.clients.iter().all(|c| !c.outcome.is_lost())
            && self.records_dropped == 0
            && self.mrt_issues == 0
    }

    /// Condense this report into the renderable
    /// [`report::QuarantineSummary`] block.
    pub fn quarantine_summary(&self) -> report::QuarantineSummary {
        let salvage = if self.mrt_issues > 0 || self.mrt_records_kept > 0 {
            vec![report::SalvageLine {
                source: "bgp-mrt".to_string(),
                kept: self.mrt_records_kept,
                quarantined: self.mrt_issues,
                samples: self.mrt_issue_samples.clone(),
            }]
        } else {
            Vec::new()
        };
        report::QuarantineSummary {
            clients_total: self.clients.len(),
            clients_lost: self.lost_names().iter().map(|s| s.to_string()).collect(),
            records_kept: self.records_kept(),
            records_dropped: self.records_dropped,
            salvage,
        }
    }
}

/// Render a caught panic payload as an error string for the [`RunReport`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "client worker panicked with a non-string payload".to_string()
    }
}

/// Run the experiment.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentOutput {
    let mut stage_walls: Vec<(&'static str, Duration)> = Vec::new();
    let mut stage_start = Instant::now();
    let horizon_us = u64::from(config.hours) * 3_600_000_000;
    let build_span = telemetry::span!("workload.build_world")
        .with_detail(|| format!("seed={} hours={}", config.seed, config.hours));
    let fleet = build_fleet();
    let sites = build_sites();
    let truth = GroundTruth::materialize(
        &fleet,
        &sites,
        config.hours,
        config.seed,
        config.fault_scale,
        &config.adversarial,
    );

    // --- DNS world -----------------------------------------------------
    // Every name a site serves, its listed name first.
    let hosts: Vec<(DomainName, Vec<Ipv4Addr>)> = truth
        .sites
        .iter()
        .flat_map(|s| s.origin.hosts().map(move |h| (h.clone(), s.addrs.clone())))
        .collect();
    let tree = ZoneTree::build_for_hosts(&hosts);

    // --- Prefix table -----------------------------------------------------
    let (prefixes, client_prefix_ids, site_prefix_ids, extra_ids) =
        build_prefixes(&fleet, &truth.sites);

    drop(build_span);
    stage_walls.push(("build_world", stage_start.elapsed()));
    stage_start = Instant::now();

    // --- BGP feed -----------------------------------------------------------
    let (bgp, mrt_records_kept, mrt_issues, mrt_issue_samples) = {
        let _span = telemetry::span!("workload.build_bgp");
        build_bgp(config, &truth, &prefixes)
    };
    stage_walls.push(("build_bgp", stage_start.elapsed()));
    stage_start = Instant::now();

    // --- Access schedule + sessions, per client ------------------------------
    let mut clients_span = telemetry::span!("workload.simulate_clients");
    clients_span.set_sim_range(0, horizon_us);
    let root = SimRng::new(config.seed);
    let n_clients = fleet.len();
    // One slot per client: `None` if the worker never reported (it died
    // before writing), otherwise the client's output or its panic message,
    // plus the worker's wall time.
    type ClientSlot = (Result<ClientData, String>, Duration);

    let threads = model::thread_count(config.threads);

    // Work-stealing scheduler: workers claim client indices from a shared
    // atomic counter instead of walking static chunks, so a straggler client
    // (dialup PoP cycling, heavy fault hours) never idles the other workers
    // behind a pre-assigned boundary. Determinism is unaffected — each
    // client's simulation runs on its own RNG stream forked by client index,
    // and the collection loop below reads the slots in client order — so
    // only the claim order varies between runs, never the data.
    let per_client: Vec<Option<ClientSlot>> = {
        let truth = &truth;
        let tree = &tree;
        let fleet = &fleet;
        let root = &root;
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ClientSlot>>> =
            (0..n_clients).map(|_| Mutex::new(None)).collect();
        let workers = threads.min(n_clients).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let next = &next;
                let slots = &slots;
                scope.spawn(move || {
                    let mut claimed = 0u64;
                    loop {
                        let client = next.fetch_add(1, Ordering::Relaxed);
                        if client >= n_clients {
                            break;
                        }
                        claimed += 1;
                        let started = Instant::now();
                        // A panicking client (apparatus node death, or a
                        // real bug) must cost exactly one client, never the
                        // run: catch it here, inside the worker loop, so
                        // this worker keeps claiming further clients. The
                        // slot lock cannot be poisoned — the panic is
                        // already caught before the lock is taken.
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_client(config, truth, tree, fleet, root, client)
                        }))
                        .map_err(panic_message);
                        *slots[client].lock().expect("client slot lock") =
                            Some((result, started.elapsed()));
                    }
                    telemetry::histogram!("workload.clients_per_worker", claimed);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("client slot lock"))
            .collect()
    };

    drop(clients_span);
    stage_walls.push(("simulate_clients", stage_start.elapsed()));
    stage_start = Instant::now();

    // --- Collection: gather surviving output, account for the rest ----------
    let _collect_span = telemetry::span!("workload.collect");
    let mut records = Vec::new();
    let mut connections = Vec::new();
    let mut observers = ObserverSink::new(config, 0);
    let mut report = RunReport {
        mrt_records_kept,
        mrt_issues,
        mrt_issue_samples,
        ..RunReport::default()
    };
    for (i, slot) in per_client.into_iter().enumerate() {
        let (outcome, wall) = match slot {
            // A scope panic outside catch_unwind would abort the run before
            // this point; an unwritten slot is still reported, not expected
            // away, so a scheduling bug degrades to a lost client.
            None => (
                ClientOutcome::Lost {
                    error: "worker never reported a result".to_string(),
                },
                Duration::ZERO,
            ),
            Some((Err(error), wall)) => (ClientOutcome::Lost { error }, wall),
            Some((Ok((mut r, mut c, sink, dropped)), wall)) => {
                report.records_dropped += dropped as u64;
                let outcome = ClientOutcome::Completed {
                    records: r.len(),
                    connections: c.len(),
                    dropped_records: dropped,
                };
                observers.append(sink, records.len());
                records.append(&mut r);
                connections.append(&mut c);
                (outcome, wall)
            }
        };
        report.clients.push(ClientRunReport {
            client: ClientId(i as u16),
            name: fleet.clients[i].name.clone(),
            outcome,
            wall,
        });
    }

    // --- Metadata ------------------------------------------------------------
    let clients_meta: Vec<ClientMeta> = fleet
        .clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut pfx = vec![client_prefix_ids[i]];
            if let Some(extra) = extra_ids[i] {
                pfx.push(extra);
            }
            ClientMeta {
                id: ClientId(i as u16),
                name: c.name.clone(),
                category: c.category,
                colocation: c.colocation,
                proxy: c.proxy,
                prefixes: pfx,
                addr: c.addr,
            }
        })
        .collect();
    let sites_meta: Vec<SiteMeta> = sites
        .iter()
        .zip(&truth.sites)
        .enumerate()
        .map(|(si, (spec, site))| {
            let replica_prefixes = site
                .addrs
                .iter()
                .map(|a| (*a, vec![site_prefix_ids[si]]))
                .collect();
            SiteMeta {
                id: SiteId(si as u16),
                hostname: site.name.to_string(),
                category: spec.category,
                addrs: site.addrs.clone(),
                replica_prefixes,
            }
        })
        .collect();

    let dataset = Dataset {
        hours: config.hours,
        clients: clients_meta,
        sites: sites_meta,
        records,
        connections,
        prefixes,
        bgp,
    };
    let ObserverSink {
        stamps,
        exemplars: forensics,
    } = observers;
    let provenance = stamps.map(|records| {
        let _span = telemetry::span!("workload.provenance_sidecar");
        assert_eq!(
            records.len(),
            dataset.records.len(),
            "sidecar must stay parallel to the dataset"
        );
        telemetry::counter!("workload.provenance_stamps", records.len() as u64);
        ProvenanceLog {
            records,
            truth: truth.truth_sidecar(),
        }
    });
    report.threads_effective = threads.min(n_clients).max(1);
    report.stage_walls = stage_walls;
    report
        .stage_walls
        .push(("collect", stage_start.elapsed()));
    if telemetry::enabled() {
        record_dataset_counters(&dataset);
    }
    if let Some(store) = forensics.as_ref() {
        telemetry::counter!("workload.forensic_exemplars", store.len() as u64);
    }
    ExperimentOutput {
        dataset,
        report,
        provenance,
        forensics,
    }
}

/// Mirror the collected dataset's per-category transaction and connection
/// outcomes into telemetry counters. Counted post-collection — after lost
/// clients and record drops — so the totals agree exactly with what
/// `netprofiler::summary::table3` computes from the same dataset (held by
/// `tests/telemetry_consistency.rs`).
fn record_dataset_counters(ds: &Dataset) {
    const LABELS: [&str; 4] = ["PL", "DU", "CN", "BB"];
    static TXNS: telemetry::CounterVec<4> =
        telemetry::CounterVec::new("workload.transactions", LABELS);
    static FAILED_TXNS: telemetry::CounterVec<4> =
        telemetry::CounterVec::new("workload.failed_transactions", LABELS);
    static CONNS: telemetry::CounterVec<4> =
        telemetry::CounterVec::new("workload.connections", LABELS);
    static FAILED_CONNS: telemetry::CounterVec<4> =
        telemetry::CounterVec::new("workload.failed_connections", LABELS);
    let cat_index = |c: model::ClientCategory| {
        model::ClientCategory::ALL
            .iter()
            .position(|&x| x == c)
            .expect("category in ALL")
    };
    for r in &ds.records {
        let i = cat_index(ds.client(r.client).category);
        TXNS.add(i, 1);
        FAILED_TXNS.add(i, u64::from(r.failed()));
    }
    for c in &ds.connections {
        let i = cat_index(ds.client(c.client).category);
        CONNS.add(i, 1);
        FAILED_CONNS.add(i, u64::from(c.failed()));
    }
}

/// Prefix-table layout (must stay in sync with
/// `faults::derive_severe_events`): indices `0..group_count` are the client
/// /24s (by wan group), `group_count..group_count+80` the per-site /16s,
/// and the remainder the extra /16s covering every 4th client.
fn build_prefixes(
    fleet: &FleetSpec,
    sites: &[SiteTruth],
) -> (
    Vec<Ipv4Prefix>,
    Vec<PrefixId>,
    Vec<PrefixId>,
    Vec<Option<PrefixId>>,
) {
    let mut prefixes: Vec<Ipv4Prefix> = Vec::new();
    // Client group /24s.
    for g in 0..fleet.group_count {
        let base = Ipv4Addr::new(10, (g / 200) as u8, (g % 200) as u8, 0);
        prefixes.push(Ipv4Prefix::new(base, 24).expect("valid"));
    }
    // Site /16s.
    let mut site_prefix_ids = Vec::with_capacity(sites.len());
    for s in sites {
        let octets = s.addrs[0].octets();
        site_prefix_ids.push(PrefixId(prefixes.len() as u32));
        prefixes.push(
            Ipv4Prefix::new(Ipv4Addr::new(octets[0], octets[1], 0, 0), 16).expect("valid"),
        );
    }
    // Client prefix ids + extra covering /16s.
    let mut client_prefix_ids = Vec::with_capacity(fleet.len());
    let mut extra_ids = Vec::with_capacity(fleet.len());
    for c in &fleet.clients {
        let g = c.wan_group.expect("all clients grouped");
        client_prefix_ids.push(PrefixId(u32::from(g)));
        if c.extra_prefix {
            let octets = c.addr.octets();
            let covering =
                Ipv4Prefix::new(Ipv4Addr::new(octets[0], octets[1], 0, 0), 16).expect("valid");
            let id = match prefixes.iter().position(|p| *p == covering) {
                Some(i) => PrefixId(i as u32),
                None => {
                    prefixes.push(covering);
                    PrefixId((prefixes.len() - 1) as u32)
                }
            };
            extra_ids.push(Some(id));
        } else {
            extra_ids.push(None);
        }
    }
    (prefixes, client_prefix_ids, site_prefix_ids, extra_ids)
}

/// Generate, aggregate and clean the BGP feed.
///
/// When apparatus feed corruption is enabled, the generated update stream
/// is round-tripped through real MRT bytes, corrupted, and salvage-decoded
/// — the hourly series is then computed from what salvage recovered, and
/// the quarantined-record count flows into the [`RunReport`].
fn build_bgp(
    config: &ExperimentConfig,
    truth: &GroundTruth,
    prefixes: &[Ipv4Prefix],
) -> (model::BgpHourlySeries, u64, u64, Vec<String>) {
    let prefix_count = prefixes.len();
    let severe_events: Vec<SevereEvent> = truth
        .severe_bgp
        .iter()
        .map(|e| SevereEvent {
            prefix: PrefixId(e.prefix_index),
            hour: e.hour,
            neighbors: e.neighbors,
            withdrawals_per_neighbor: e.withdrawals_per_neighbor,
            announcements_per_neighbor: 2,
        })
        .collect();
    let mut scenario = BgpScenario::quiet(prefix_count, config.hours);
    scenario.severe_events = severe_events;
    // Adversarial reconfiguration windows (empty unless the profile enabled
    // the bgp-transient archetype) ride into the feed alongside the severe
    // events, each drawing only from its own per-window fork.
    scenario.reconfig_windows = truth
        .adversarial
        .reconfig_windows
        .iter()
        .map(|w| ReconfigWindow {
            prefix: PrefixId(w.prefix_index),
            hour: w.hour,
            peers: w.peers,
            bursts: w.bursts,
        })
        .collect();
    // A collector reset roughly every 10 days.
    let mut rng = SimRng::new(config.seed).fork_str("bgp-resets");
    let mut h = 0u32;
    while h < config.hours {
        h += 120 + rng.below(240) as u32;
        if h < config.hours {
            scenario.reset_hours.push(h);
        }
    }
    let raw = generate(&scenario, &mut SimRng::new(config.seed).fork_str("bgp-gen"));

    let mut kept_count = 0u64;
    let mut issue_count = 0u64;
    let mut issue_samples = Vec::new();
    let updates = if config.apparatus.corrupt_bgp_feed {
        let table = MrtPrefixTable::new(prefixes);
        let mut wire = encode_stream(&raw.updates, &table);
        let mut rng = SimRng::new(config.seed).fork_str("apparatus-mrt");
        corrupt_buffer(&mut rng, &mut wire);
        let (salvaged, issues) = decode_stream_salvage(&wire, &table);
        kept_count = salvaged.len() as u64;
        issue_count = issues.len() as u64;
        issue_samples = issues
            .iter()
            .take(8)
            .map(|i| format!("MRT offset {}: {}", i.offset, i.error))
            .collect();
        salvaged
    } else {
        raw.updates
    };

    let series = aggregate(&updates, prefix_count, config.hours);
    let (cleaned, _report) = clean(&series, &raw.hourly_unique_prefixes);
    (cleaned, kept_count, issue_count, issue_samples)
}

/// One client's month for collection: its kept records, its connection
/// records, its observers' sink and how many records collection lost.
type ClientData = (
    Vec<PerformanceRecord>,
    Vec<ConnectionRecord>,
    ObserverSink,
    usize,
);

/// Run one client's month.
///
/// The month's access schedule is fixed before any access runs: each
/// iteration draws its dial-in offset, URL order and jitters from the
/// client stream, in iteration order, and no access moves a later one. The
/// accesses then run in time order. Within one iteration the times are
/// strictly increasing (the jitter is bounded by `slot / 4 < slot`), so the
/// sort reorders only where iteration windows overlap: dial-up batches at
/// ≥4 accesses/hour, where the batch outlasts the window. The sort is
/// stable, so accesses at the same instant keep iteration order.
fn run_client(
    config: &ExperimentConfig,
    truth: &GroundTruth,
    tree: &ZoneTree,
    fleet: &FleetSpec,
    root: &SimRng,
    client: usize,
) -> ClientData {
    let spec = &fleet.clients[client];
    let mut rng = root.fork(0x90_0000 + client as u64);
    // Apparatus node death: the worker genuinely panics at the drawn
    // instant (caught by the runner's catch_unwind). The draw uses its own
    // stream, so enabling it never perturbs the simulated accesses.
    let death = config.apparatus.death_time(root, client, config.hours);
    // Collection loss: one coin per record from the client's own loss
    // stream (thread-invariant), drawn before the push, so a dropped access
    // is never pushed, stamped or offered; its connection records stay.
    let drop_prob = config.apparatus.record_drop_prob;
    let mut drops = (drop_prob > 0.0).then(|| config.apparatus.drop_stream(root, client));
    let mut dropped = 0usize;
    // Capture verdicts and loss counts on PL/DU clients only: BB never
    // captured, and CN captures are uninformative and skipped, as in the
    // paper.
    let record_traces = matches!(
        spec.category,
        model::ClientCategory::PlanetLab | model::ClientCategory::Dialup
    );
    let mut wget = WgetConfig {
        record_traces,
        record_provenance: config.record_provenance,
        forensics: config.forensics.is_some(),
        ..WgetConfig::default()
    };
    wget.resolver.wire_fidelity = config.wire_fidelity;

    let view = ClientView::new(truth, client as u16);
    let resolver = wget.resolver;
    let mut session = ClientSession::new(ClientId(client as u16), tree, wget, rng.fork(1));
    let mut proxy_session = spec.proxy.map(|p| {
        let proxy = ProxySession::new(p, tree, resolver, rng.fork(2));
        (proxy, ProxyView::new(truth, p.0))
    });

    let iterations = u64::from(config.hours) * u64::from(config.iterations_per_hour);
    let iter_len = 3_600_000_000u64 / u64::from(config.iterations_per_hour); // µs
    let n_sites = truth.sites.len();
    // Dialup clients dial a PoP and download every URL at a stretch before
    // hanging up (Section 3.4); everyone else spreads accesses over the
    // iteration window.
    let burst = spec.category == model::ClientCategory::Dialup;
    let slot = if burst {
        12_000_000 // ~12 s between URLs while dialed in
    } else {
        iter_len / n_sites as u64
    };

    // Size the month up front: one schedule entry and one record per
    // access, and (for direct clients) roughly 1.05–1.6 connections per
    // record, so the access loop never reallocates mid-run.
    let accesses = (iterations as usize).saturating_mul(n_sites);
    let mut records = Vec::with_capacity(accesses);
    let mut connections = if spec.proxy.is_some() {
        Vec::new()
    } else {
        Vec::with_capacity(accesses + accesses / 2)
    };
    let mut observers = ObserverSink::new(config, accesses);

    let mut month_span = telemetry::span!("workload.client_month")
        .with_detail(|| format!("{} ({})", spec.name, spec.category.abbrev()));
    month_span.set_sim_range(0, u64::from(config.hours) * 3_600_000_000);

    let mut order: Vec<usize> = (0..n_sites).collect();
    let mut schedule: Vec<(SimTime, usize)> = Vec::with_capacity(accesses);
    for iter in 0..iterations {
        let mut base = SimTime::from_micros(iter * iter_len);
        if burst {
            // Dial in at a random point of the window that leaves room for
            // the whole batch.
            let batch = slot * n_sites as u64;
            let slack = iter_len.saturating_sub(batch).max(1);
            base += SimDuration::from_micros(rng.below(slack));
        }
        // Randomized URL order each iteration (Section 3.1).
        rng.shuffle(&mut order);
        for (k, &si) in order.iter().enumerate() {
            let jitter = rng.below(slot / 4);
            schedule.push((base + SimDuration::from_micros(k as u64 * slot + jitter), si));
        }
    }
    schedule.sort_by_key(|&(t, _)| t);

    for (t, si) in schedule {
        if let Some(d) = death {
            if t >= d {
                panic!(
                    "apparatus: client {client} node died at {}s",
                    d.as_micros() / 1_000_000
                );
            }
        }
        if truth.machine_down(client, t) {
            telemetry::counter!("workload.accesses_skipped_down", 1);
            continue;
        }
        telemetry::counter!("workload.accesses_attempted", 1);
        let (site, host) = (SiteId(si as u16), &truth.sites[si].name);
        let (record, provenance, trace) = match proxy_session.as_mut() {
            Some((ps, pview)) => session.run_proxied_transaction(&view, ps, pview, site, host, t),
            None => session.run_transaction(&view, site, host, t, &mut connections),
        };
        if drops.as_mut().is_some_and(|coin| coin.f64() < drop_prob) {
            dropped += 1;
            continue;
        }
        observers.observe(&record, provenance, trace, records.len());
        records.push(record);
    }
    (records, connections, observers, dropped)
}

/// Everything the ground-truth observers gathered, for one client while it
/// runs and for the whole run after collection: the provenance stamps,
/// parallel by index to the records, and the forensic exemplar store. A
/// part is `None` when its observer is off. Both see kept records only, and
/// the in-order append goes through here once, for both observers.
struct ObserverSink {
    stamps: Option<Vec<ProvenanceRecord>>,
    exemplars: Option<ExemplarStore>,
}

impl ObserverSink {
    fn new(config: &ExperimentConfig, records: usize) -> ObserverSink {
        ObserverSink {
            stamps: config
                .record_provenance
                .then(|| Vec::with_capacity(records)),
            exemplars: config
                .forensics
                .as_ref()
                .map(|f| ExemplarStore::new(&f.pin)),
        }
    }

    /// Take the truth of the access whose record will be pushed at
    /// `record_index`: one stamp per record, and its trace offered to the
    /// exemplar store.
    fn observe(
        &mut self,
        record: &PerformanceRecord,
        provenance: Option<ProvenanceRecord>,
        trace: Option<TxnTrace>,
        record_index: usize,
    ) {
        if let Some(stamps) = self.stamps.as_mut() {
            stamps.push(provenance.unwrap_or_default());
        }
        if let (Some(store), Some(trace)) = (self.exemplars.as_mut(), trace) {
            store.offer(TraceExemplar {
                client: record.client.0,
                site: record.site.0,
                hour: record.hour(),
                record_index,
                start: record.start,
                duration_us: (record.dns.unwrap_or(SimDuration::ZERO)
                    + record.download_time.unwrap_or(SimDuration::ZERO))
                .as_micros(),
                failed: record.failed(),
                truth: trace.truth(),
                trace,
            });
        }
    }

    /// Append a later client's sink whose records follow the first `base`
    /// records collected so far. Its exemplars are offered again, once
    /// each and in record order: every record a client's store rejected
    /// was beaten there by records that reach this store first, so the
    /// run's store admits what one store offered the whole dataset would.
    fn append(&mut self, other: ObserverSink, base: usize) {
        if let (Some(mine), Some(mut theirs)) = (self.stamps.as_mut(), other.stamps) {
            mine.append(&mut theirs);
        }
        if let (Some(mine), Some(theirs)) = (self.exemplars.as_mut(), other.exemplars) {
            for mut ex in theirs.into_record_order() {
                ex.record_index += base;
                mine.offer(ex);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::ClientCategory;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            seed: 5,
            hours: 12,
            iterations_per_hour: 1,
            wire_fidelity: true,
            threads: 0,
            fault_scale: 1.0,
            apparatus: ApparatusFaults::none(),
            record_provenance: false,
            adversarial: AdversarialProfile::none(),
            forensics: None,
        }
    }

    #[test]
    fn tiny_run_produces_records_for_everyone() {
        let out = run_experiment(&tiny());
        let ds = &out.dataset;
        assert_eq!(ds.clients.len(), 134);
        assert_eq!(ds.sites.len(), 80);
        // ~12×80×134 = 128k minus machine downtime.
        let expected = tiny().expected_transactions() as usize;
        assert!(ds.records.len() > expected * 90 / 100, "{}", ds.records.len());
        assert!(ds.records.len() <= expected);
        // Every client made accesses.
        let mut per_client = vec![0usize; 134];
        for r in &ds.records {
            per_client[r.client.0 as usize] += 1;
        }
        assert!(per_client.iter().all(|&n| n > 0));
    }

    #[test]
    fn connection_counts_exceed_transactions_for_direct_clients() {
        let out = run_experiment(&tiny());
        let ds = &out.dataset;
        let direct_txns = ds
            .records
            .iter()
            .filter(|r| r.proxy.is_none())
            .count();
        assert!(
            ds.connections.len() > direct_txns,
            "{} conns vs {} direct txns",
            ds.connections.len(),
            direct_txns
        );
        // Ratio in the paper's ballpark (1.2–1.3).
        let ratio = ds.connections.len() as f64 / direct_txns as f64;
        assert!((1.05..1.6).contains(&ratio), "ratio {ratio}");
        // CN clients have no connection records (masked by the proxy).
        for c in ds.clients_in(ClientCategory::CorpNet) {
            if c.proxy.is_some() {
                assert!(ds.connections.iter().all(|conn| conn.client != c.id));
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut cfg = tiny();
        cfg.hours = 6;
        cfg.threads = 1;
        let a = run_experiment(&cfg);
        cfg.threads = 7;
        let b = run_experiment(&cfg);
        assert_eq!(a.dataset.records.len(), b.dataset.records.len());
        assert_eq!(a.dataset.connections.len(), b.dataset.connections.len());
        for (x, y) in a.dataset.records.iter().zip(&b.dataset.records) {
            assert_eq!(x.client, y.client);
            assert_eq!(x.site, y.site);
            assert_eq!(x.start, y.start);
            assert_eq!(x.outcome, y.outcome);
        }
    }

    #[test]
    fn prefix_table_covers_everyone() {
        let out = run_experiment(&tiny());
        let ds = &out.dataset;
        for c in &ds.clients {
            assert!(!c.prefixes.is_empty());
            for p in &c.prefixes {
                assert!(ds.prefix(*p).contains(c.addr), "{} not covered", c.name);
            }
        }
        for s in &ds.sites {
            for (addr, pfx) in &s.replica_prefixes {
                for p in pfx {
                    assert!(ds.prefix(*p).contains(*addr));
                }
            }
        }
        // ~a quarter of clients carry a second prefix.
        let two = ds.clients.iter().filter(|c| c.prefixes.len() == 2).count();
        assert_eq!(two, 34);
    }

    #[test]
    fn bgp_series_has_severe_activity() {
        let mut cfg = tiny();
        cfg.hours = 48;
        let out = run_experiment(&cfg);
        let ds = &out.dataset;
        let severe = ds
            .bgp
            .active_cells()
            .filter(|(_, _, cell)| cell.neighbors_withdrawing >= 70)
            .count();
        // Showcase clients plus coupled server events, scaled to 48 h.
        assert!(severe >= 1, "no severe BGP cells");
    }

    #[test]
    fn config_digest_is_stable_and_knob_sensitive() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.digest(), b.digest());
        let mut c = tiny();
        c.seed += 1;
        assert_ne!(a.digest(), c.digest());
        let mut d = tiny();
        d.fault_scale = 2.0;
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn run_report_records_stage_walls_in_order() {
        let mut cfg = tiny();
        cfg.hours = 2;
        cfg.threads = 3;
        let out = run_experiment(&cfg);
        let names: Vec<&str> = out.report.stage_walls.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["build_world", "build_bgp", "simulate_clients", "collect"]
        );
        assert_eq!(out.report.threads_effective, 3);
    }

    #[test]
    fn healthy_run_report_is_clean() {
        let out = run_experiment(&tiny());
        assert!(out.report.is_clean());
        assert!(out.report.lost_clients().is_empty());
        assert_eq!(out.report.clients.len(), 134);
        assert_eq!(out.report.records_kept() as usize, out.dataset.records.len());
        for c in &out.report.clients {
            match &c.outcome {
                ClientOutcome::Completed {
                    records,
                    dropped_records,
                    ..
                } => {
                    assert!(*records > 0, "{} made no accesses", c.name);
                    assert_eq!(*dropped_records, 0);
                }
                ClientOutcome::Lost { error } => panic!("{} lost: {error}", c.name),
            }
        }
    }

    #[test]
    fn node_deaths_lose_clients_not_the_run() {
        let mut cfg = tiny();
        cfg.wire_fidelity = false;
        cfg.apparatus = ApparatusFaults {
            client_death_prob: 0.2,
            ..ApparatusFaults::none()
        };
        let out = run_experiment(&cfg);
        let lost = out.report.lost_clients();
        assert!(!lost.is_empty(), "p=0.2 over 134 clients must kill some");
        assert!(lost.len() < 134, "and most must survive");
        // Lost clients left no records; survivors all did.
        for c in &out.report.clients {
            let n = out
                .dataset
                .records
                .iter()
                .filter(|r| r.client == c.client)
                .count();
            match &c.outcome {
                ClientOutcome::Lost { error } => {
                    assert_eq!(n, 0, "{} died but left records", c.name);
                    assert!(error.contains("died"), "unexpected panic text: {error}");
                }
                ClientOutcome::Completed { records, .. } => assert_eq!(n, *records),
            }
        }
        // Survivors' records are identical to the healthy run's.
        let healthy = run_experiment(&{
            let mut c = cfg.clone();
            c.apparatus = ApparatusFaults::none();
            c
        });
        let lost_set: std::collections::HashSet<ClientId> = lost.into_iter().collect();
        let surviving: Vec<_> = healthy
            .dataset
            .records
            .iter()
            .filter(|r| !lost_set.contains(&r.client))
            .collect();
        assert_eq!(surviving.len(), out.dataset.records.len());
        for (a, b) in surviving.iter().zip(&out.dataset.records) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn record_drops_are_accounted_exactly() {
        let mut cfg = tiny();
        cfg.hours = 6;
        cfg.wire_fidelity = false;
        cfg.apparatus = ApparatusFaults {
            record_drop_prob: 0.05,
            ..ApparatusFaults::none()
        };
        let out = run_experiment(&cfg);
        assert!(out.report.records_dropped > 0);
        assert_eq!(
            out.report.records_kept() as usize,
            out.dataset.records.len()
        );
        let healthy = run_experiment(&{
            let mut c = cfg.clone();
            c.apparatus = ApparatusFaults::none();
            c
        });
        assert_eq!(
            out.dataset.records.len() as u64 + out.report.records_dropped,
            healthy.dataset.records.len() as u64
        );
        // Dropped rate in the configured ballpark.
        let rate = out.report.records_dropped as f64 / healthy.dataset.records.len() as f64;
        assert!((0.03..0.08).contains(&rate), "drop rate {rate}");
        // Connections are never dropped by this mechanism.
        assert_eq!(
            out.dataset.connections.len(),
            healthy.dataset.connections.len()
        );
    }

    #[test]
    fn corrupted_bgp_feed_is_salvaged_with_issues_reported() {
        let mut cfg = tiny();
        cfg.hours = 48;
        cfg.wire_fidelity = false;
        cfg.apparatus = ApparatusFaults {
            corrupt_bgp_feed: true,
            ..ApparatusFaults::none()
        };
        let out = run_experiment(&cfg);
        assert!(out.report.mrt_issues > 0, "corruption must quarantine something");
        assert!(!out.report.mrt_issue_samples.is_empty());
        // The salvaged series still carries the bulk of BGP activity.
        let healthy = run_experiment(&{
            let mut c = cfg.clone();
            c.apparatus = ApparatusFaults::none();
            c
        });
        // The stress corruption truncates the tail third of the feed and
        // flips two dozen bits, so the back of the month is gone — but the
        // surviving prefix must still carry a substantial share of the
        // activity rather than collapse to nothing.
        let cells = out.dataset.bgp.active_cells().count();
        let healthy_cells = healthy.dataset.bgp.active_cells().count();
        assert!(
            cells * 3 >= healthy_cells,
            "salvage kept {cells} of {healthy_cells} active cells"
        );
    }

    #[test]
    fn failure_rates_roughly_ordered_by_category() {
        // Even at tiny scale, PL should fail more than DU.
        let mut cfg = tiny();
        cfg.hours = 48;
        cfg.wire_fidelity = false;
        let out = run_experiment(&cfg);
        let ds = &out.dataset;
        let rate = |cat: ClientCategory| {
            let mut total = 0usize;
            let mut failed = 0usize;
            for r in &ds.records {
                if ds.client(r.client).category == cat {
                    total += 1;
                    failed += usize::from(r.failed());
                }
            }
            failed as f64 / total.max(1) as f64
        };
        let pl = rate(ClientCategory::PlanetLab);
        let du = rate(ClientCategory::Dialup);
        assert!(pl > du, "PL {pl} vs DU {du}");
        assert!(pl > 0.01 && pl < 0.06, "PL rate {pl}");
    }
}
