//! The traced pass: one traced job, the off-path layer calls and the
//! config-switch reruns, turned into the per-layer metrics.
//!
//! Everything is measured from outside the program: the benchmark's spans
//! around public calls, the `RunReport`, and the counters and spans the
//! telemetry recorder already keeps. Layer costs that sit behind a config
//! switch are measured by rerunning the simulation with the switch off.

use crate::job::{self, run_job, stage_s, Render, Workload};
use crate::metrics::{Metrics, BLOCK_IDS, PER_LAYER};
use crate::spans::{Source, Tracer};
use crate::{alloc, stats, Window};
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{run_experiment, ExperimentConfig};

pub struct Traced {
    pub metrics: Metrics,
    pub fingerprint: u64,
    /// Client-months of the traced job, and how many were lost.
    pub clients: u64,
    pub lost: u64,
    /// Every rerun produced as many records as the traced job.
    pub reruns_agree: bool,
}

/// The module a span name belongs to, for per-module self time.
///
/// A `workload.client_month` span is one client's `run_client` on a worker
/// thread: its body is the session loop, webclient driving dnssim, tcpsim,
/// httpsim, netsim and the wire codecs, so its self time is filed under
/// `webclient`, the layer the program's spans cannot split further.
fn module(name: &str) -> &'static str {
    if name == "workload.client_month" {
        return "webclient";
    }
    match name.split('.').next().unwrap_or("") {
        "workload" => "workload",
        "client" => "webclient",
        "bgp" => "bgpsim",
        "analysis" | "core" => "core",
        "report" => "report",
        "model" => "model",
        _ => "perfbench",
    }
}

const SECS: f64 = 1e-9;

/// Wall time of `run_experiment(cfg)` and the records it produced.
fn rerun_sim(cfg: &ExperimentConfig) -> (f64, usize) {
    let t = Instant::now();
    let out = run_experiment(cfg);
    (t.elapsed().as_secs_f64(), out.dataset.records.len())
}

pub fn traced_pass(w: &Workload, win: Window) -> Traced {
    let base_sim = win.median(|t| t.sim);
    let base_analysis = stats::median(&win.analyses).expect("one job");
    let base_wall = win.median(|t| t.wall);
    drop(win);

    let mut tr = Tracer::new(true);
    telemetry::reset();
    telemetry::enable(true);
    alloc::set_counting(true);
    // Align the recorder's clock with the tracer's: both are `Instant`s, so
    // one bracketed reading fixes the offset.
    let before = tr.now_ns();
    drop(telemetry::span!("perfbench.clock"));
    let after = tr.now_ns();
    let job = run_job(w, &mut tr);
    telemetry::enable(false);
    let snap = telemetry::snapshot();

    // Off the job's path: the row → column conversion on its own, and for
    // the HTML page each paper block on its own.
    let cds = tr.span("model.from_dataset", |_| {
        model::ColumnarDataset::from_dataset(&job.out.dataset)
    });
    let footprint = cds.memory();
    drop(cds);
    if w.render == Render::Html {
        job::time_blocks(w, &job.out.dataset, &mut tr);
    }
    alloc::set_counting(false);

    let anchor = snap
        .spans
        .iter()
        .find(|s| s.name == "perfbench.clock")
        .expect("the clock span was recorded");
    let offset = anchor.start_ns as i64 - ((before + after) / 2) as i64;
    let main_tid = anchor.tid;
    let records: Vec<telemetry::SpanRecord> = snap
        .spans
        .iter()
        .filter(|s| s.name != "perfbench.clock")
        .cloned()
        .collect();
    tr.absorb(&records, offset, main_tid);
    if snap.spans_dropped > 0 {
        eprintln!("warning: the recorder dropped {} spans", snap.spans_dropped);
    }

    let mut m = Metrics::new(PER_LAYER);
    let spans = tr.spans();
    let kids = tr.children();
    let dur_of = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * SECS)
            .sum()
    };
    let first = |name: &str| spans.iter().position(|s| s.name == name);
    let counter = |name: &str| snap.counter(name) as f64;

    // --- workload ---------------------------------------------------------
    let out = &job.out;
    let report = &out.report;
    m.set("workload.build_world_s", stage_s(out, &["build_world"]));
    m.set("workload.build_bgp_s", stage_s(out, &["build_bgp"]));
    let stage_clients = stage_s(out, &["simulate_clients"]);
    m.set("workload.simulate_clients_s", stage_clients);
    let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
    let mut walls = Vec::with_capacity(report.clients.len());
    for c in &report.clients {
        let cat = out.dataset.clients[usize::from(c.client.0)]
            .category
            .abbrev();
        *busy.entry(cat).or_default() += c.wall.as_secs_f64();
        walls.push(c.wall.as_secs_f64());
    }
    for cat in ["PL", "DU", "CN", "BB"] {
        m.set(
            &format!("workload.client_busy_s.{cat}"),
            busy.get(cat).copied().unwrap_or(0.0),
        );
    }
    if let (Some(p50), Some(p90)) = (stats::quantile(&walls, 0.5), stats::quantile(&walls, 0.9)) {
        m.set("workload.client_busy_p50_s", p50);
        m.set("workload.client_busy_p90_s", p90);
    }
    let busy_total: f64 = walls.iter().sum();
    m.set(
        "workload.worker_idle_s",
        report.threads_effective as f64 * stage_clients - busy_total,
    );
    m.set(
        "workload.accesses_attempted",
        counter("workload.accesses_attempted"),
    );
    m.set(
        "workload.accesses_skipped_down",
        counter("workload.accesses_skipped_down"),
    );
    m.set("workload.collect_s", stage_s(out, &["collect"]));
    if let Some(i) = first("workload.run_experiment") {
        m.set("workload.allocs", spans[i].allocs as f64);
        m.set("workload.alloc_bytes", spans[i].alloc_bytes as f64);
    }
    m.set("workload.records_dropped", report.records_dropped as f64);
    m.set(
        "workload.provenance_stamps",
        counter("workload.provenance_stamps"),
    );
    m.set(
        "workload.forensic_exemplars",
        counter("workload.forensic_exemplars"),
    );

    // --- webclient / wire / http -------------------------------------------
    let host_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "client.transaction")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    m.set("webclient.txn_host_us.samples", host_us.len() as f64);
    if let Some(p50) = stats::quantile(&host_us, 0.5) {
        m.set("webclient.txn_host_us.p50", p50);
    }
    if let Some((level, v)) = stats::tail_percentile(&host_us) {
        eprintln!(
            "webclient.txn_host_us tail is p{level} of {} samples",
            host_us.len()
        );
        m.set("webclient.txn_host_us.tail", v);
    }
    for label in ["ok", "redirect", "error"] {
        m.set(
            &format!("http.responses.{label}"),
            counter(&format!("http.responses{{{label}}}")),
        );
    }

    // --- dnssim -----------------------------------------------------------
    let lookups = counter("dns.lookups");
    let hits = counter("dns.cache_hits");
    m.set("dns.lookups", lookups);
    m.set("dns.cache_hits", hits);
    m.set(
        "dns.cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    for kind in ["ldns_timeout", "non_ldns_timeout", "error_response"] {
        m.set(
            &format!("dns.failures.{kind}"),
            counter(&format!("dns.failures{{{kind}}}")),
        );
    }

    // --- tcpsim / netsim --------------------------------------------------
    let conns = counter("tcp.connections");
    m.set("tcp.connections", conns);
    let attempted = counter("workload.accesses_attempted");
    m.set(
        "tcp.conn_per_txn",
        if attempted > 0.0 {
            conns / attempted
        } else {
            0.0
        },
    );
    m.set(
        "tcp.syn_retransmissions",
        counter("tcp.syn_retransmissions"),
    );
    m.set(
        "tcp.retransmissions_sent",
        counter("tcp.retransmissions_sent"),
    );
    m.set(
        "engine.events_dispatched",
        counter("engine.events_dispatched"),
    );
    m.set(
        "engine.queue_depth_peak",
        snap.gauge("engine.queue_depth_peak").unwrap_or(0) as f64,
    );

    // --- bgpsim -----------------------------------------------------------
    m.set("bgp.generate_s", dur_of("bgp.generate"));
    m.set("bgp.aggregate_s", dur_of("bgp.aggregate"));
    m.set("bgp.clean_s", dur_of("bgp.clean"));
    m.set("bgp.updates_aggregated", counter("bgp.updates_aggregated"));

    // --- model ------------------------------------------------------------
    if let Some(i) = first("model.from_dataset") {
        m.set("model.columnar_s", spans[i].dur_ns() as f64 * SECS);
        m.set("model.allocs", spans[i].allocs as f64);
    }
    m.set("model.columnar_bytes", footprint.columnar_bytes as f64);
    m.set("model.row_bytes", footprint.row_bytes as f64);

    // --- core (recorder spans, summed over calls and threads) -------------
    if let Some(i) = first("core.index.f5") {
        m.set("core.index_s", spans[i].dur_ns() as f64 * SECS);
    }
    for (metric, names) in [
        ("core.permanent_s", &["analysis.permanent_pairs"][..]),
        (
            "core.grid_conn_s",
            &["analysis.grid.client_conn", "analysis.grid.server_conn"],
        ),
        ("core.grid_outcome_s", &["analysis.grid.outcome"]),
        (
            "core.summary_s",
            &["analysis.summary.figure1", "analysis.summary.table3"],
        ),
        ("core.figure4_s", &["analysis.episodes.figure4"]),
        (
            "core.table5_s",
            &["analysis.blame.table5", "analysis.blame.table5_outcome"],
        ),
        (
            "core.server_episodes_s",
            &["analysis.blame.server_episodes"],
        ),
        ("core.prefix_grid_s", &["analysis.bgp.prefix_grid"]),
        ("core.severe_bgp_s", &["analysis.bgp.severe_instability"]),
        ("core.pair_episodes_s", &["analysis.pair_episodes"]),
        ("core.audit_s", &["analysis.audit"]),
    ] {
        m.set(metric, names.iter().map(|n| dur_of(n)).sum());
    }
    m.set("core.par_shards", counter("analysis.par_shards"));

    // --- report -----------------------------------------------------------
    for id in BLOCK_IDS {
        m.set(
            &format!("report.block_s.{id}"),
            dur_of(&format!("report.block.{id}")),
        );
    }
    m.set("report.compare_s", dur_of("report.comparisons"));
    m.set("report.manifest_s", dur_of("report.manifest_for"));
    m.set("report.html_s", dur_of("report.html_page"));
    m.set("report.bytes", job.report_bytes as f64);

    // --- self time per module, over the traced job's spans ---------------
    let root = first("perfbench.job").expect("the job span");
    let mut self_by_module: BTreeMap<&str, f64> = BTreeMap::new();
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        *self_by_module.entry(module(&spans[i].name)).or_default() +=
            tr.self_ns(i, &kids) as f64 * SECS;
        stack.extend(&kids[i]);
    }
    for module in [
        "workload",
        "webclient",
        "bgpsim",
        "core",
        "report",
        "perfbench",
    ] {
        m.set(
            &format!("self_s.{module}"),
            self_by_module.get(module).copied().unwrap_or(0.0),
        );
    }

    // --- the blocking path, against the untraced medians ------------------
    let mut remainders = Vec::new();
    for (root_name, untraced) in [
        ("workload.run_experiment", base_sim),
        ("perfbench.analysis", base_analysis),
    ] {
        let r = first(root_name).expect("job spans");
        eprintln!("blocking path of {root_name} (traced self times, s):");
        for &c in &kids[r] {
            let s = &spans[c];
            if matches!(s.source, Source::Bench) || s.source == Source::Recorder(main_tid) {
                eprintln!(
                    "  {:<34} {:>9.4} (self {:.4})",
                    s.name,
                    s.dur_ns() as f64 * SECS,
                    tr.self_ns(c, &kids) as f64 * SECS
                );
            }
        }
        let traced = spans[r].dur_ns() as f64 * SECS;
        eprintln!(
            "  {:<34} {:>9.4}\n  = traced {traced:.4} s; untraced median {untraced:.4} s; remainder {:.4} s",
            "(self)",
            tr.self_ns(r, &kids) as f64 * SECS,
            untraced - traced
        );
        remainders.push(untraced - traced);
    }
    m.set("trace.sim_remainder_s", remainders[0]);
    m.set("trace.analysis_remainder_s", remainders[1]);
    m.set("trace.overhead_s", job.times.wall - base_wall);
    m.set("trace.spans", spans.len() as f64);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", w.name, w.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }

    let traced = Traced {
        fingerprint: job.fingerprint,
        clients: report.clients.len() as u64,
        lost: report.lost_clients().len() as u64,
        reruns_agree: true,
        metrics: m,
    };
    let records = out.dataset.records.len();
    drop(job);
    reruns(w, records, traced)
}

/// Layer costs behind a config switch: rerun the simulation untraced as
/// configured, then with each switch off, back to back, so that the
/// difference is not the host's speed drifting between the window and the
/// reruns.
fn reruns(w: &Workload, records: usize, mut t: Traced) -> Traced {
    let mut run = |label: &str, cfg: &ExperimentConfig| -> f64 {
        let (s, n) = rerun_sim(cfg);
        eprintln!("rerun {label}: sim {s:.3} s, {n} records");
        if n != records {
            eprintln!("rerun {label} produced {n} records, the traced job {records}");
            t.reruns_agree = false;
        }
        s
    };
    let c = &w.config;
    let base = run("as configured", c);
    let codec = if c.wire_fidelity {
        base - run(
            "wire off",
            &ExperimentConfig {
                wire_fidelity: false,
                ..c.clone()
            },
        )
    } else {
        0.0
    };
    let observers = if c.record_provenance || c.forensics.is_some() {
        let off = ExperimentConfig {
            record_provenance: false,
            forensics: None,
            ..c.clone()
        };
        base - run("observers off", &off)
    } else {
        0.0
    };
    let one_thread = run(
        "1 thread",
        &ExperimentConfig {
            threads: 1,
            ..c.clone()
        },
    );
    t.metrics.set("wire.codec_s", codec);
    t.metrics.set("workload.observers_s", observers);
    t.metrics.set("workload.sim_speedup_2t", one_thread / base);
    t
}

#[cfg(test)]
mod tests {
    use super::module;

    #[test]
    fn client_months_are_filed_under_the_client_layer() {
        assert_eq!(module("workload.client_month"), "webclient");
        assert_eq!(module("client.transaction"), "webclient");
        assert_eq!(module("workload.simulate_clients"), "workload");
        assert_eq!(module("analysis.grid.outcome"), "core");
        assert_eq!(module("perfbench.job"), "perfbench");
    }
}
