//! Metric declarations and the result line.
//!
//! Every metric the benchmark prints is declared here with its unit, its
//! better direction and, for per-layer metrics, the end-to-end metric and
//! workload it should move. `BENCHMARK.json` at the repository root
//! declares the same names; a test holds the two lists equal.

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What the metric is; for a per-layer metric, the end-to-end metric
    /// and workload it should move.
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> Decl {
    Decl {
        name,
        unit,
        better,
        about,
    }
}

/// Printed with `--trace 0`.
#[rustfmt::skip]
pub const END_TO_END: &[Decl] = &[
    m("txn_per_s", "1/s", "higher", "headline: transactions simulated, analysed and rendered per wall second"),
    m("sim_s", "s", "lower", "wall time of run_experiment"),
    m("setup_s", "s", "lower", "build_world + build_bgp stage walls"),
    m("analysis_s", "s", "lower", "finished dataset to finished report or page"),
    m("peak_rss_mb", "MB", "lower", "VmHWM of the job"),
    m("ok_share", "ratio", "higher", "client-months completed with checked output over attempted"),
];

/// The paper blocks of `report::render::paper_blocks`, in emission order.
pub const BLOCK_IDS: [&str; 25] = [
    "table1",
    "table2",
    "table3",
    "fig1",
    "table4",
    "fig2",
    "fig3",
    "permanent",
    "fig4",
    "table5",
    "episodes",
    "table6",
    "table7",
    "table8",
    "replicas",
    "bgp",
    "fig5",
    "fig6",
    "fig7",
    "table9",
    "pairs",
    "medians",
    "timing",
    "loss",
    "digcheck",
];

const SIM: &str = "moves sim_s, txn_per_s; all";
const BLOCK: &str = "moves analysis_s; both";

/// Printed with `--trace 1`.
#[rustfmt::skip]
pub const PER_LAYER: &[Decl] = &[
    // workload
    m("workload.build_world_s", "s", "lower", "moves setup_s; all"),
    m("workload.build_bgp_s", "s", "lower", "moves setup_s; all"),
    m("workload.simulate_clients_s", "s", "lower", SIM),
    m("workload.client_busy_s.PL", "s", "lower", SIM),
    m("workload.client_busy_s.DU", "s", "lower", SIM),
    m("workload.client_busy_s.CN", "s", "lower", SIM),
    m("workload.client_busy_s.BB", "s", "lower", SIM),
    m("workload.client_busy_p50_s", "s", "lower", SIM),
    m("workload.client_busy_p90_s", "s", "lower", "moves sim_s: the slowest clients set the stage time under 2 workers; all"),
    m("workload.worker_idle_s", "s", "lower", SIM),
    m("workload.sim_speedup_2t", "ratio", "higher", SIM),
    m("workload.accesses_attempted", "count", "lower", "moves none: workload size; all"),
    m("workload.accesses_skipped_down", "count", "lower", "moves none: workload size; all"),
    m("workload.collect_s", "s", "lower", "moves sim_s, peak_rss_mb; adversarial-html most"),
    m("workload.allocs", "count", "lower", "moves sim_s, peak_rss_mb; adversarial-html most"),
    m("workload.alloc_bytes", "bytes", "lower", "moves sim_s, peak_rss_mb; adversarial-html most"),
    m("workload.observers_s", "s", "lower", "moves sim_s on adversarial-html only; 0 on quick-wire"),
    m("workload.records_dropped", "count", "lower", "moves none: 1% keep-mask on adversarial-html"),
    m("workload.provenance_stamps", "count", "lower", "moves sim_s on adversarial-html only"),
    m("workload.forensic_exemplars", "count", "lower", "moves sim_s on adversarial-html only"),
    // webclient / dnswire / httpsim
    m("webclient.txn_host_us.p50", "us", "lower", "moves sim_s; quick-wire most"),
    m("webclient.txn_host_us.tail", "us", "lower", "moves sim_s; quick-wire most"),
    m("webclient.txn_host_us.samples", "count", "lower", "moves none: 1-in-1024 sample count"),
    m("wire.codec_s", "s", "lower", "moves sim_s on quick-wire; 0 on adversarial-html"),
    m("http.responses.ok", "count", "lower", "moves sim_s; quick-wire"),
    m("http.responses.redirect", "count", "lower", "moves sim_s; quick-wire"),
    m("http.responses.error", "count", "lower", "moves sim_s; quick-wire"),
    // dnssim
    m("dns.lookups", "count", "lower", "moves sim_s; quick-wire most"),
    m("dns.cache_hits", "count", "higher", "moves sim_s; quick-wire most"),
    m("dns.cache_hit_ratio", "ratio", "higher", "moves sim_s; quick-wire most"),
    m("dns.failures.ldns_timeout", "count", "lower", "moves sim_s; adversarial-html most"),
    m("dns.failures.non_ldns_timeout", "count", "lower", "moves sim_s; adversarial-html most"),
    m("dns.failures.error_response", "count", "lower", "moves sim_s; adversarial-html most"),
    // tcpsim / netsim
    m("tcp.connections", "count", "lower", SIM),
    m("tcp.conn_per_txn", "ratio", "lower", SIM),
    m("tcp.syn_retransmissions", "count", "lower", "moves sim_s; adversarial-html most"),
    m("tcp.retransmissions_sent", "count", "lower", "moves sim_s; adversarial-html most"),
    m("engine.events_dispatched", "count", "lower", SIM),
    m("engine.queue_depth_peak", "count", "lower", SIM),
    // bgpsim
    m("bgp.generate_s", "s", "lower", "moves setup_s; all"),
    m("bgp.aggregate_s", "s", "lower", "moves setup_s; all"),
    m("bgp.clean_s", "s", "lower", "moves setup_s; all"),
    m("bgp.updates_aggregated", "count", "lower", "moves setup_s; all"),
    // model
    m("model.columnar_s", "s", "lower", "moves analysis_s, peak_rss_mb; adversarial-html most"),
    m("model.columnar_bytes", "bytes", "lower", "moves peak_rss_mb; adversarial-html most"),
    m("model.row_bytes", "bytes", "lower", "moves peak_rss_mb; adversarial-html most"),
    m("model.allocs", "count", "lower", "moves analysis_s; adversarial-html most"),
    // core
    m("core.index_s", "s", "lower", "moves analysis_s (paid twice); adversarial-html most"),
    m("core.permanent_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.grid_conn_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.grid_outcome_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.summary_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.figure4_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.table5_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.server_episodes_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.prefix_grid_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.severe_bgp_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.pair_episodes_s", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("core.audit_s", "s", "lower", "moves analysis_s; adversarial-html only"),
    m("core.par_shards", "count", "lower", "moves analysis_s; adversarial-html most"),
    // report
    m("report.block_s.table1", "s", "lower", BLOCK),
    m("report.block_s.table2", "s", "lower", BLOCK),
    m("report.block_s.table3", "s", "lower", BLOCK),
    m("report.block_s.fig1", "s", "lower", BLOCK),
    m("report.block_s.table4", "s", "lower", BLOCK),
    m("report.block_s.fig2", "s", "lower", BLOCK),
    m("report.block_s.fig3", "s", "lower", BLOCK),
    m("report.block_s.permanent", "s", "lower", BLOCK),
    m("report.block_s.fig4", "s", "lower", BLOCK),
    m("report.block_s.table5", "s", "lower", BLOCK),
    m("report.block_s.episodes", "s", "lower", BLOCK),
    m("report.block_s.table6", "s", "lower", BLOCK),
    m("report.block_s.table7", "s", "lower", BLOCK),
    m("report.block_s.table8", "s", "lower", BLOCK),
    m("report.block_s.replicas", "s", "lower", BLOCK),
    m("report.block_s.bgp", "s", "lower", BLOCK),
    m("report.block_s.fig5", "s", "lower", BLOCK),
    m("report.block_s.fig6", "s", "lower", BLOCK),
    m("report.block_s.fig7", "s", "lower", BLOCK),
    m("report.block_s.table9", "s", "lower", BLOCK),
    m("report.block_s.pairs", "s", "lower", BLOCK),
    m("report.block_s.medians", "s", "lower", BLOCK),
    m("report.block_s.timing", "s", "lower", BLOCK),
    m("report.block_s.loss", "s", "lower", BLOCK),
    m("report.block_s.digcheck", "s", "lower", BLOCK),
    m("report.compare_s", "s", "lower", BLOCK),
    m("report.manifest_s", "s", "lower", "moves analysis_s on adversarial-html only"),
    m("report.html_s", "s", "lower", "moves analysis_s on adversarial-html only"),
    m("report.bytes", "bytes", "lower", "moves none: output size; all"),
    // self time per module, summed over threads
    m("self_s.workload", "s", "lower", "moves setup_s, sim_s: world build, stage glue, collection; all"),
    m("self_s.webclient", "s", "lower", "moves sim_s, txn_per_s: client-month session loops with dnssim, tcpsim, httpsim, codecs; all"),
    m("self_s.bgpsim", "s", "lower", "moves setup_s; all"),
    m("self_s.core", "s", "lower", "moves analysis_s; adversarial-html most"),
    m("self_s.report", "s", "lower", "moves analysis_s; all"),
    m("self_s.perfbench", "s", "lower", "moves none: the benchmark's own glue"),
    // the trace itself
    m("trace.overhead_s", "s", "lower", "moves none: traced job wall minus untraced median"),
    m("trace.sim_remainder_s", "s", "lower", "moves none: untraced sim_s minus the traced stage spans"),
    m("trace.analysis_remainder_s", "s", "lower", "moves none: untraced analysis_s minus the traced call spans"),
    m("trace.spans", "count", "lower", "moves none: spans in the trace file"),
];

/// The values of one run, in declaration order of the chosen list.
pub struct Metrics {
    list: &'static [Decl],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(list: &'static [Decl]) -> Metrics {
        Metrics {
            list,
            values: vec![None; list.len()],
        }
    }

    /// Set a declared metric. Setting an undeclared name is a bug in the
    /// benchmark, not a measurement outcome.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .list
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.values[i] = Some(value + 0.0);
    }

    /// Names declared but never set, or set to a non-finite value.
    pub fn missing(&self) -> Vec<&'static str> {
        self.list
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(f64::is_finite))
            .map(|(d, _)| d.name)
            .collect()
    }

    /// `(declaration, value)` for every set, finite metric.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Decl, f64)> + '_ {
        self.list
            .iter()
            .zip(&self.values)
            .filter_map(|(d, v)| v.filter(|x| x.is_finite()).map(|x| (d, x)))
    }

    /// The result line's `metrics` object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::trajectory::Json;

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn find(name: &str) -> Option<&'static Decl> {
        END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
    }

    fn ours(list: &[Decl]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        assert_eq!(ours(END_TO_END), declared("end_to_end"));
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        assert_eq!(ours(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn every_printed_name_is_declared() {
        for list in [END_TO_END, PER_LAYER] {
            let mut m = Metrics::new(list);
            for d in list {
                m.set(d.name, 1.5);
            }
            assert!(m.missing().is_empty());
            let json = Json::parse(&m.to_json()).expect("metrics object parses");
            let Json::Obj(members) = json else {
                panic!("metrics is an object")
            };
            assert_eq!(members.len(), list.len());
            for (name, v) in &members {
                let d = find(name).unwrap_or_else(|| panic!("{name} printed but not declared"));
                assert_eq!(v.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(v.num("value"), Some(1.5));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn setting_an_undeclared_name_panics() {
        Metrics::new(END_TO_END).set("latency_ms", 1.0);
    }

    #[test]
    fn unset_and_non_finite_values_are_missing() {
        let mut m = Metrics::new(END_TO_END);
        m.set("sim_s", f64::NAN);
        assert!(m.missing().contains(&"sim_s"));
        assert!(m.missing().contains(&"setup_s"));
        assert!(!m.to_json().contains("sim_s"));
    }

    #[test]
    fn block_ids_match_the_declared_block_metrics() {
        let blocks: Vec<&str> = PER_LAYER
            .iter()
            .filter_map(|d| d.name.strip_prefix("report.block_s."))
            .collect();
        assert_eq!(blocks, BLOCK_IDS);
    }
}
