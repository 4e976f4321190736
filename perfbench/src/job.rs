//! The workloads and the user's path through the program for one job.
//!
//! A job is what one `reproduce` invocation does: `run_experiment`, then
//! `Analysis::new` at f = 5 % and f = 10 %, then every paper block plus
//! `comparisons` (text workloads), or `manifest_for` plus `html_page` (the
//! HTML workload, as `reproduce --html` does). Every call is public API.

use crate::metrics::BLOCK_IDS;
use crate::spans::Tracer;
use bench_suite::Fnv;
use model::Dataset;
use netprofiler::{Analysis, AnalysisConfig};
use report::render;
use std::fmt::Write as _;
use std::time::Instant;
use workload::{run_experiment, AdversarialProfile, ExperimentConfig, ExperimentOutput};

/// Worker threads for simulation and analysis alike.
pub const THREADS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Render {
    /// Every paper block plus the comparisons, as text.
    Text,
    /// The self-contained HTML page.
    Html,
}

pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub config: ExperimentConfig,
    pub render: Render,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let (name, mut config, render) = match name {
            // `reproduce`'s default run: 72 h × 1/h, wire codecs and packet
            // traces on.
            "quick-wire" => ("quick-wire", ExperimentConfig::quick(seed), Render::Text),
            // 72 h × 2/h in the adversarial month, both observers on, 1 %
            // collection loss, rendered as the HTML page.
            "adversarial-html" => {
                let mut c = ExperimentConfig::quick(seed);
                c.iterations_per_hour = 2;
                c.wire_fidelity = false;
                c.adversarial = AdversarialProfile::adversarial_month();
                c.record_provenance = true;
                c.forensics = Some(workload::ForensicsConfig::default());
                c.apparatus.record_drop_prob = 0.01;
                ("adversarial-html", c, Render::Html)
            }
            _ => return None,
        };
        config.threads = THREADS;
        Some(Workload {
            name,
            seed,
            config,
            render,
        })
    }

    pub fn analysis_configs(&self) -> (AnalysisConfig, AnalysisConfig) {
        (
            AnalysisConfig::default().with_threads(THREADS),
            AnalysisConfig::conservative().with_threads(THREADS),
        )
    }
}

/// Wall times of one job, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct JobTimes {
    /// `run_experiment`.
    pub sim: f64,
    /// `build_world` + `build_bgp` stage walls inside `run_experiment`.
    pub setup: f64,
    /// Finished dataset to finished report or page.
    pub analysis: f64,
    /// `sim + analysis`.
    pub wall: f64,
}

pub struct Job {
    pub out: ExperimentOutput,
    pub times: JobTimes,
    /// FNV-1a of the report text or the page bytes.
    pub fingerprint: u64,
    pub report_bytes: usize,
}

/// Sum of the named stage walls of a run report, in seconds.
pub fn stage_s(out: &ExperimentOutput, stages: &[&str]) -> f64 {
    out.report
        .stage_walls
        .iter()
        .filter(|(s, _)| stages.contains(s))
        .map(|(_, d)| d.as_secs_f64())
        .sum()
}

/// Run one job along the user's path.
pub fn run_job(w: &Workload, tr: &mut Tracer) -> Job {
    tr.span("perfbench.job", |tr| {
        let t0 = Instant::now();
        let out = tr.span("workload.run_experiment", |_| run_experiment(&w.config));
        let sim = t0.elapsed().as_secs_f64();
        let (analysis, fingerprint, report_bytes) = analyse(w, &out, tr);
        Job {
            times: JobTimes {
                sim,
                setup: stage_s(&out, &["build_world", "build_bgp"]),
                analysis,
                wall: sim + analysis,
            },
            fingerprint,
            report_bytes,
            out,
        }
    })
}

/// From a finished dataset to the finished report or page: its wall time
/// in seconds, its fingerprint and its size in bytes.
pub fn analyse(w: &Workload, out: &ExperimentOutput, tr: &mut Tracer) -> (f64, u64, usize) {
    let t = Instant::now();
    let report = tr.span("perfbench.analysis", |tr| match w.render {
        Render::Text => text_report(w, &out.dataset, tr),
        Render::Html => html_report(w, out, tr),
    });
    let secs = t.elapsed().as_secs_f64();
    let mut h = Fnv::new();
    h.write_str(&report).expect("hashing cannot fail");
    (secs, h.finish(), report.len())
}

fn index<'d>(w: &Workload, ds: &'d Dataset, tr: &mut Tracer) -> (Analysis<'d>, Analysis<'d>) {
    let (c5, c10) = w.analysis_configs();
    let a5 = tr.span("core.index.f5", |_| Analysis::new(ds, c5));
    let a10 = tr.span("core.index.f10", |_| Analysis::new(ds, c10));
    (a5, a10)
}

/// The text report in `report::render_all`'s layout.
fn text_report(w: &Workload, ds: &Dataset, tr: &mut Tracer) -> String {
    let (a5, a10) = index(w, ds, tr);
    let blocks = blocks_one_by_one(ds, &a5, &a10, w.seed, tr);
    let comps = tr.span("report.comparisons", |_| render::comparisons(ds, &a5, &a10));
    let mut text = String::new();
    for (id, body) in &blocks {
        let _ = write!(text, "==== {id} ====\n{body}\n");
    }
    text.push_str("==== compare ====\n");
    for c in &comps {
        text.push_str(&c.line());
        text.push('\n');
    }
    text.push('\n');
    text
}

/// The HTML page as `reproduce --html` builds it, except that the inputs
/// that vary between identical runs are pinned: stage walls read 0, the
/// telemetry section is empty (the recorder is off) and no bench-trajectory
/// files are read. The page is then a pure function of the run.
fn html_report(w: &Workload, out: &ExperimentOutput, tr: &mut Tracer) -> String {
    let (a5, a10) = index(w, &out.dataset, tr);
    let mut manifest = tr.span("report.manifest_for", |_| {
        bench_suite::manifest_for(out, &w.config, w.name, w.seed)
    });
    for wall in &mut manifest.stage_walls {
        wall.seconds = 0.0;
    }
    let missing = bench_suite::BENCH_ARTIFACTS
        .iter()
        .map(|s| s.to_string())
        .collect();
    tr.span("report.html_page", |_| {
        bench_suite::html_page(out, &a5, &a10, w.seed, &manifest, &[], missing, &[])
    })
}

/// The blocks of `render::paper_blocks`, one public render call per span,
/// as `reproduce` renders them.
pub fn blocks_one_by_one(
    ds: &Dataset,
    a5: &Analysis<'_>,
    a10: &Analysis<'_>,
    seed: u64,
    tr: &mut Tracer,
) -> Vec<(&'static str, String)> {
    let mut blocks = Vec::with_capacity(BLOCK_IDS.len());
    for id in BLOCK_IDS {
        let body = tr.span(&format!("report.block.{id}"), |_| match id {
            "table1" => Some(render::render_table1(ds)),
            "table2" => Some(render::render_table2(ds)),
            "table3" => Some(render::render_table3(&a5.cds)),
            "fig1" => Some(render::render_figure1(&a5.cds)),
            "table4" => Some(render::render_table4(ds)),
            "fig2" => Some(render::render_figure2(ds)),
            "fig3" => Some(render::render_figure3(ds)),
            "permanent" => Some(render::render_permanent(a5)),
            "fig4" => Some(render::render_figure4(a5)),
            "table5" => Some(render::render_table5(a5, a10)),
            "episodes" => Some(render::render_episode_stats(a5)),
            "table6" => Some(render::render_table6(a5, 12)),
            "table7" => Some(render::render_table7(a5, seed)),
            "table8" => Some(render::render_table8(a5, 8)),
            "replicas" => Some(render::render_replicas(a5)),
            "bgp" => Some(render::render_bgp(a5)),
            "fig5" => render::render_client_timeseries_csv(ds, "howard"),
            "fig6" => Some(render::render_figure6_csv(a5)),
            "fig7" => render::render_client_timeseries_csv(ds, "kscy"),
            "table9" => Some(render::render_table9(a5, &["iitb", "royal"])),
            "pairs" => Some(render::render_pair_episodes(a5)),
            "medians" => Some(render::render_medians(&a5.cds)),
            "timing" => Some(render::render_timing(ds)),
            "loss" => Some(render::render_loss(ds)),
            "digcheck" => Some(render::render_digcheck(ds)),
            other => unreachable!("block {other} has no renderer"),
        });
        if let Some(body) = body {
            blocks.push((id, body));
        }
    }
    blocks
}

/// Time each paper block and the comparisons of an already-finished job,
/// off its blocking path (the HTML page renders them inside one
/// `html_page` call).
pub fn time_blocks(w: &Workload, ds: &Dataset, tr: &mut Tracer) {
    tr.span("perfbench.offpath_blocks", |tr| {
        let (a5, a10) = index(w, ds, tr);
        blocks_one_by_one(ds, &a5, &a10, w.seed, tr);
        tr.span("report.comparisons", |_| render::comparisons(ds, &a5, &a10));
    });
}

/// Hold the headline artifacts of `ds` to the naive oracle.
pub fn oracle_check(w: &Workload, ds: &Dataset) -> Result<(), String> {
    let (c5, _) = w.analysis_configs();
    let naive = oracle::analyze(ds, &c5);
    let diff = oracle::check_dataset_with_oracle(ds, c5, &naive);
    if diff.is_clean() {
        Ok(())
    } else {
        Err(diff.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_one_by_one_match_paper_blocks() {
        let w = Workload::new("quick-wire", 7).expect("a declared workload");
        let config = ExperimentConfig {
            hours: 6,
            wire_fidelity: false,
            ..w.config.clone()
        };
        let ds = run_experiment(&config).dataset;
        let (c5, c10) = w.analysis_configs();
        let (a5, a10) = (Analysis::new(&ds, c5), Analysis::new(&ds, c10));
        let ours = blocks_one_by_one(&ds, &a5, &a10, w.seed, &mut Tracer::new(false));
        assert_eq!(ours.len(), BLOCK_IDS.len(), "every block rendered");
        assert_eq!(ours, render::paper_blocks(&ds, &a5, &a10, w.seed));
    }
}
