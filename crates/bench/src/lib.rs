//! Shared scaffolding for the benchmark suite and the `reproduce` harness.

use model::Dataset;
use netprofiler::Analysis;
use workload::{ExperimentConfig, ExperimentOutput};

/// Named experiment scales for the harness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// 72 h × 1 access/hour, full wire fidelity (~0.8 M transactions).
    Quick,
    /// One week × 2 accesses/hour, no wire fidelity (~3.5 M transactions).
    Stress,
    /// Full month × 2 accesses/hour (~16 M transactions) — the default
    /// reproduction scale.
    Reproduction,
    /// Full month × 4 accesses/hour (~32 M transactions) — the paper's
    /// access rate.
    Paper,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "stress" => Some(Scale::Stress),
            "repro" | "reproduction" => Some(Scale::Reproduction),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    pub fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Scale::Quick => ExperimentConfig::quick(seed),
            Scale::Stress => ExperimentConfig::stress(seed),
            Scale::Reproduction => ExperimentConfig::reproduction(seed),
            Scale::Paper => ExperimentConfig::paper_scale(seed),
        }
    }
}

/// The value of a numeric command-line flag, read from the argument after
/// it. A missing or malformed value exits with status 2 naming the flag,
/// so a typo never runs the default in its place.
pub fn numeric_flag<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> T {
    let Some(value) = args.next() else {
        eprintln!("{flag} needs a number");
        std::process::exit(2);
    };
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: {value:?} is not a valid number");
        std::process::exit(2);
    })
}

/// Streaming FNV-1a hasher over formatted text, shared by the harness
/// binaries for dataset fingerprints and config digests.
pub struct Fnv(u64);

impl Fnv {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Hash the complete dataset contents without materializing the string.
/// The run manifest records it (`dataset_fingerprint` in `manifest.json`
/// and on the HTML page), and `explain` compares two runs by it.
pub fn dataset_fingerprint(ds: &Dataset) -> u64 {
    debug_fingerprint(ds)
}

/// FNV-1a of a value's full `Debug` rendering, streamed without
/// materializing the string.
pub fn debug_fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv::new();
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.finish()
}

/// FNV-1a of a text, such as a rendered report.
pub fn text_fingerprint(text: &str) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv::new();
    h.write_str(text).expect("hashing cannot fail");
    h.finish()
}

/// The two committed bench regression artifacts the HTML report's
/// trajectory panel ingests.
pub const BENCH_ARTIFACTS: [&str; 2] = ["BENCH_audit.json", "BENCH_scenarios.json"];

/// Build the run manifest for an experiment output. Everything except
/// `stage_walls` is a pure function of the dataset and config; the walls
/// are the one deliberately nondeterministic block (tests pin them).
pub fn manifest_for(
    out: &ExperimentOutput,
    config: &ExperimentConfig,
    scale_name: &str,
    seed: u64,
) -> report::html::Manifest {
    let ds = &out.dataset;
    report::html::Manifest {
        scale: scale_name.to_string(),
        seed,
        threads_configured: config.threads,
        threads_effective: out.report.threads_effective,
        hours: config.hours,
        iterations_per_hour: config.iterations_per_hour,
        config_digest: config.digest(),
        adversarial_profile: if config.adversarial.is_none() {
            "none".to_string()
        } else {
            "custom".to_string()
        },
        dataset_fingerprint: dataset_fingerprint(ds),
        transactions: ds.records.len() as u64,
        connections: ds.connections.len() as u64,
        records_dropped: out.report.records_dropped,
        clients_lost: out.report.lost_clients().len() as u64,
        stage_walls: out
            .report
            .stage_walls
            .iter()
            .map(|(stage, wall)| report::html::StageWall {
                stage: stage.to_string(),
                seconds: wall.as_secs_f64(),
            })
            .collect(),
    }
}

/// Assemble the complete self-contained HTML report page.
///
/// Every nondeterministic input (stage walls inside `manifest`, span
/// aggregates in `stage_profile`) arrives as data, so the page is a pure
/// function of its arguments — the byte-determinism tests pin those inputs
/// and compare pages across thread counts.
#[allow(clippy::too_many_arguments)]
pub fn html_page(
    out: &ExperimentOutput,
    a5: &Analysis<'_>,
    a10: &Analysis<'_>,
    seed: u64,
    manifest: &report::html::Manifest,
    bench_sources: &[(String, String)],
    bench_missing: Vec<String>,
    stage_profile: &[telemetry::StageProfile],
) -> String {
    let ds = &out.dataset;
    let blocks = report::render::paper_blocks(ds, a5, a10, seed);
    let comps = report::render::comparisons(ds, a5, a10);
    let audit_report = out
        .provenance
        .as_ref()
        .map(|log| netprofiler::audit::audit(a5, log));
    let quarantine = out.report.quarantine_summary();
    // Forensic exemplars: one waterfall per distinct (client, site, hour),
    // and the audit's missed-sample drilldowns deep-link into them.
    let exemplars: Vec<model::TraceExemplar> = out
        .forensics
        .as_ref()
        .map(|s| s.unique_by_key().into_iter().cloned().collect())
        .unwrap_or_default();
    let linked: Vec<(u16, u16, u32)> = exemplars.iter().map(|x| x.key()).collect();

    let mut page = report::html::HtmlReport::new(format!(
        "End-to-end web access failures — {} scale, seed {seed}",
        manifest.scale
    ))
    .with_generated(
        "Reproduction of 'A Study of End-to-End Web Access Failures' (CoNEXT 2006). \
         Page is a pure function of the run: same seed and scale, same bytes.",
    );
    let manifest_section = report::html::ManifestSection(manifest);
    let paper_section = report::render::PaperSection { blocks };
    let compare_section = report::paper::CompareSection(&comps);
    let audit_section = audit_report.as_ref().map(|a| report::audit::AuditSection {
        audit: a,
        linked: &linked,
    });
    let waterfall_section = report::waterfall::WaterfallSection {
        exemplars: &exemplars,
    };
    let quarantine_section = report::quarantine::QuarantineSection(&quarantine);
    let telemetry_section = report::html::TelemetrySection(stage_profile);
    let trajectory_section =
        report::trajectory::TrajectorySection::from_sources(bench_sources, bench_missing);
    page.add_section(&manifest_section);
    page.add_section(&paper_section);
    page.add_section(&compare_section);
    if let Some(s) = audit_section.as_ref() {
        page.add_section(s);
    }
    if !exemplars.is_empty() {
        page.add_section(&waterfall_section);
    }
    page.add_section(&quarantine_section);
    page.add_section(&telemetry_section);
    page.add_section(&trajectory_section);
    page.render()
}

/// Write the current telemetry snapshot as the standard profile artifact
/// set: `telemetry.jsonl` (metric/event dump) and `trace.json`
/// (Chrome-trace-format, loadable in `about:tracing` / Perfetto) under
/// `dir`, plus the human summary on stderr.
///
/// Used by the `--profile` flag of the harness binaries.
pub fn write_profile(dir: &std::path::Path) -> std::io::Result<()> {
    let snap = telemetry::snapshot();
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("telemetry.jsonl"), snap.to_jsonl())?;
    std::fs::write(dir.join("trace.json"), snap.to_chrome_trace())?;
    eprintln!("{}", snap.render_summary());
    eprintln!(
        "profile written: {} and {}",
        dir.join("telemetry.jsonl").display(),
        dir.join("trace.json").display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("stress"), Some(Scale::Stress));
        assert_eq!(Scale::parse("repro"), Some(Scale::Reproduction));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn configs_scale_up() {
        let q = Scale::Quick.config(1);
        let s = Scale::Stress.config(1);
        let r = Scale::Reproduction.config(1);
        let p = Scale::Paper.config(1);
        assert!(q.expected_transactions() < s.expected_transactions());
        assert!(s.expected_transactions() < r.expected_transactions());
        assert!(r.expected_transactions() < p.expected_transactions());
    }
}
